// Tests for the §7 future-work extensions the paper sketches and this
// library implements:
//   * non-injective (overwriting) write relations,
//   * combination of cross-loop pipelining with per-nest parallelism
//     (relaxed same-nest ordering with exact self-dependence edges),
//   * code generation for nests of arbitrary depth (the paper's prototype
//     stopped at depth 2).

#include "codegen/task_program.hpp"
#include "kernels/matmul.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly {
namespace {

void expectPipelinedMatchesSequential(const scop::Scop& scop,
                                      const pipeline::DetectOptions& opt) {
  codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
  EXPECT_NO_THROW(prog.validate(scop));
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  for (int rep = 0; rep < 3; ++rep) {
    testing::InterpretedKernel kernel(scop);
    auto layer = tasking::makeThreadPoolBackend(4);
    tasking::executeTaskProgram(prog, *layer, kernel.executor());
    ASSERT_EQ(kernel.fingerprint(), expected) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------
// Non-injective writes.
// ---------------------------------------------------------------------

/// S(i, j) overwrites A[i][0] for every j (non-injective); T reads the
/// final A[i][0].
scop::Scop overwritingSource() {
  scop::ScopBuilder b("overwrite");
  std::size_t A = b.array("A", {8, 8});
  std::size_t B = b.array("B", {8, 8});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 8).bound(1, 0, 8);
  S.write(A, {S.dim(0), S.constant(0)});
  S.read(A, {S.dim(0), S.dim(1)});
  auto T = b.statement("T", 2);
  T.bound(0, 0, 8).bound(1, 0, 8);
  T.write(B, {T.dim(0), T.dim(1)});
  T.read(A, {T.dim(0), T.constant(0)});
  T.read(B, {T.dim(0), T.dim(1)}); // and keep T serial-ish
  return b.build();
}

TEST(NonInjectiveWritesTest, RejectedByDefault) {
  scop::Scop scop = overwritingSource();
  EXPECT_THROW((void)pipeline::detectPipeline(scop), Error);
}

TEST(NonInjectiveWritesTest, AcceptedWithOption) {
  scop::Scop scop = overwritingSource();
  pipeline::DetectOptions opt;
  opt.allowNonInjectiveWrites = true;
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
  EXPECT_TRUE(info.hasPipeline());
}

TEST(NonInjectiveWritesTest, RequirementCoversLastWriter) {
  // T[i][j] reads A[i][0], last written by S[i][7]; the pipeline map must
  // not enable T[i][*] before S[i][7].
  scop::Scop scop = overwritingSource();
  pb::IntMap t = pipeline::pipelineMap(scop, 0, 1,
                                       /*allowNonInjective=*/true);
  for (const auto& [i, j] : t.pairs())
    EXPECT_GE(i[1], 7) << "target " << j << " enabled before last write "
                       << i;
}

TEST(NonInjectiveWritesTest, ExecutionMatchesSequential) {
  pipeline::DetectOptions opt;
  opt.allowNonInjectiveWrites = true;
  expectPipelinedMatchesSequential(overwritingSource(), opt);
}

TEST(NonInjectiveWritesTest, MatchesNaiveComposition) {
  scop::Scop scop = overwritingSource();
  EXPECT_EQ(pipeline::pipelineMap(scop, 0, 1, true),
            pipeline::pipelineMapNaive(scop, 0, 1, true));
}

class NonInjectiveSweepTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NonInjectiveSweepTest, RandomOverwritingSourcesStayCorrect) {
  SplitMix64 rng(GetParam());
  const pb::Value n = 6 + static_cast<pb::Value>(rng.nextBelow(4));
  scop::ScopBuilder b("noninj");
  std::size_t A = b.array("A", {n, n});
  std::size_t B = b.array("B", {n, n});
  auto S = b.statement("S", 2);
  S.bound(0, 0, n).bound(1, 0, n);
  // Overwriting write: column collapses to a random constant.
  const pb::Value col = static_cast<pb::Value>(rng.nextBelow(
      static_cast<std::uint64_t>(n)));
  S.write(A, {S.dim(0), S.constant(col)});
  S.read(A, {S.dim(0), S.dim(1)});
  auto T = b.statement("T", 2);
  T.bound(0, 0, n).bound(1, 0, n);
  T.write(B, {T.dim(0), T.dim(1)});
  T.read(A, {T.dim(0), T.constant(col)});
  T.read(B, {T.dim(0), T.dim(1)});
  scop::Scop scop = b.build();

  EXPECT_EQ(pipeline::pipelineMap(scop, 0, 1, true),
            pipeline::pipelineMapNaive(scop, 0, 1, true));

  pipeline::DetectOptions opt;
  opt.allowNonInjectiveWrites = true;
  expectPipelinedMatchesSequential(scop, opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonInjectiveSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Relaxed same-nest ordering (combination with per-nest parallelism).
// ---------------------------------------------------------------------

/// Producer rows are independent (only a j-carried self dependence);
/// consumer reads whole rows. With relaxed ordering the producer's row
/// blocks may run concurrently.
scop::Scop rowParallelChain(pb::Value n) {
  scop::ScopBuilder b("rowpar");
  std::size_t A = b.array("A", {n, n});
  std::size_t B = b.array("B", {n, n});
  auto S = b.statement("S", 2);
  S.bound(0, 0, n).bound(1, 1, n);
  S.write(A, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0), S.dim(1) - 1}); // serial in j only
  auto T = b.statement("T", 2);
  T.bound(0, 0, n).bound(1, 0, n);
  T.write(B, {T.dim(0), T.dim(1)});
  T.readRange(A, {T.rangeDim(0, 1), T.rangeAux(0, 1) + 1}, {n - 1});
  T.read(B, {T.dim(0), T.dim(1)});
  return b.build();
}

TEST(RelaxedOrderingTest, RowParallelProducerHasNoSelfEdges) {
  scop::Scop scop = rowParallelChain(8);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
  // Producer blocks are rows; the j-carried dependence never crosses a
  // row boundary, so there must be no self edges.
  EXPECT_FALSE(info.statements[0].chainOrdering);
  EXPECT_TRUE(info.statements[0].selfEdges.empty());
}

TEST(RelaxedOrderingTest, SerialNestKeepsCrossBlockEdges) {
  scop::Scop scop = testing::listing1(12);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
  // S reads A[i+1][j+1]: dependences cross its (sub-row) blocks.
  EXPECT_FALSE(info.statements[0].selfEdges.empty());
}

TEST(RelaxedOrderingTest, CorrectnessOnFixtures) {
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  expectPipelinedMatchesSequential(testing::listing1(14), opt);
  expectPipelinedMatchesSequential(testing::listing3(14), opt);
  expectPipelinedMatchesSequential(testing::chain(4, 9), opt);
  expectPipelinedMatchesSequential(rowParallelChain(10), opt);
}

TEST(RelaxedOrderingTest, CorrectnessOnOpenMPBackend) {
  if (!tasking::openMPAvailable())
    GTEST_SKIP();
  scop::Scop scop = rowParallelChain(10);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  testing::InterpretedKernel kernel(scop);
  auto layer = tasking::makeOpenMPBackend();
  tasking::executeTaskProgram(prog, *layer, kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

TEST(RelaxedOrderingTest, UnlocksParallelismBeyondChainLength) {
  // nmm nests are fully parallel: with the paper's chain the pipeline
  // speedup is bounded by the chain length; relaxed ordering combines
  // pipelining with per-nest parallelism and must do strictly better.
  scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM, 2, 16);
  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 1e-4);

  codegen::TaskProgram chain = codegen::compilePipeline(scop);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  codegen::TaskProgram relaxed = codegen::compilePipeline(scop, opt);

  const double seq = sim::sequentialTime(scop, model);
  double chainSpeed =
      seq / sim::simulate(chain, model, sim::SimConfig{8}).makespan;
  double relaxedSpeed =
      seq / sim::simulate(relaxed, model, sim::SimConfig{8}).makespan;
  EXPECT_LE(chainSpeed, 2.1); // bounded by the 2-nest chain
  EXPECT_GT(relaxedSpeed, 4.0) << "relaxation should use all 8 workers";
}

TEST(RelaxedOrderingTest, ValidateAcceptsRelaxedPrograms) {
  scop::Scop scop = rowParallelChain(8);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
  EXPECT_FALSE(prog.chainOrdering);
  EXPECT_NO_THROW(prog.validate(scop));
}

// ---------------------------------------------------------------------
// Arbitrary nest depth (paper prototype: depth <= 2; here: any depth).
// ---------------------------------------------------------------------

scop::Scop depth3Chain(pb::Value n) {
  scop::ScopBuilder b("depth3");
  std::size_t A = b.array("A", {n + 1, n + 1, n + 1});
  std::size_t B = b.array("B", {n + 1, n + 1, n + 1});
  auto S = b.statement("S", 3);
  S.bound(0, 0, n).bound(1, 0, n).bound(2, 0, n);
  S.write(A, {S.dim(0), S.dim(1), S.dim(2)});
  S.read(A, {S.dim(0) + 1, S.dim(1) + 1, S.dim(2) + 1});
  S.read(A, {S.dim(0), S.dim(1), S.dim(2) + 1});
  auto T = b.statement("T", 3);
  T.bound(0, 0, n).bound(1, 0, n).bound(2, 0, n);
  T.write(B, {T.dim(0), T.dim(1), T.dim(2)});
  T.read(A, {T.dim(0), T.dim(1), T.dim(2)});
  T.read(B, {T.dim(0), T.dim(1), T.dim(2) + 1});
  return b.build();
}

scop::Scop depth1Chain(pb::Value n) {
  scop::ScopBuilder b("depth1");
  std::size_t A = b.array("A", {n + 1});
  std::size_t B = b.array("B", {n + 1});
  auto S = b.statement("S", 1);
  S.bound(0, 0, n);
  S.write(A, {S.dim(0)});
  S.read(A, {S.dim(0) + 1});
  auto T = b.statement("T", 1);
  T.bound(0, 0, n);
  T.write(B, {T.dim(0)});
  T.read(A, {T.dim(0)});
  T.read(B, {T.dim(0) + 1});
  return b.build();
}

TEST(DeepNestTest, Depth3CompilesAndValidates) {
  scop::Scop scop = depth3Chain(5);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  EXPECT_NO_THROW(prog.validate(scop));
  EXPECT_GT(prog.tasks.size(), 2u);
  // Block vectors are 3-dimensional.
  EXPECT_EQ(prog.tasks.front().blockRep.size(), 3u);
}

TEST(DeepNestTest, Depth3ExecutionMatchesSequential) {
  expectPipelinedMatchesSequential(depth3Chain(5), {});
}

TEST(DeepNestTest, Depth1ExecutionMatchesSequential) {
  expectPipelinedMatchesSequential(depth1Chain(20), {});
}

TEST(DeepNestTest, MixedDepthsInOneScop) {
  // A depth-2 producer feeding a depth-1 consumer that reads row t-1.
  scop::ScopBuilder b("mixed");
  std::size_t A = b.array("A", {8, 8});
  std::size_t B = b.array("B", {8});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 7).bound(1, 0, 7);
  S.write(A, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0) + 1, S.dim(1) + 1});
  auto T = b.statement("T", 1);
  T.bound(0, 1, 8);
  T.write(B, {T.dim(0)});
  T.readRange(A, {T.rangeDim(0, 1) - 1, T.rangeAux(0, 1)}, {7});
  T.read(B, {T.dim(0)});
  expectPipelinedMatchesSequential(b.build(), {});
}

TEST(DeepNestTest, Depth3WithRelaxedOrderingAndCoarsening) {
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  opt.coarsening = 3;
  expectPipelinedMatchesSequential(depth3Chain(5), opt);
}

} // namespace
} // namespace pipoly
