#include "kernels/chains.hpp"

#include "codegen/task_program.hpp"
#include "kernels/matmul_runner.hpp"
#include "scop/dependences.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "tasking/tasking.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

namespace pipoly::kernels {
namespace {

void expectEquivalent(const scop::Scop& scop) {
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  prog.validate(scop);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  testing::InterpretedKernel kernel(scop);
  auto layer = tasking::makeThreadPoolBackend(4);
  tasking::executeTaskProgram(prog, *layer, kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

TEST(JacobiChainTest, BuildsAndIsSerialPerStage) {
  scop::Scop scop = jacobiChain(3, 10);
  EXPECT_EQ(scop.numStatements(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    auto par = scop::parallelDims(scop, s);
    EXPECT_FALSE(par[0]);
    EXPECT_FALSE(par[1]);
  }
}

TEST(JacobiChainTest, PipelinesAndExecutesCorrectly) {
  scop::Scop scop = jacobiChain(3, 10);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  EXPECT_EQ(info.maps.size(), 2u); // consecutive stages only
  expectEquivalent(scop);
}

TEST(SeidelChainTest, PipelinesAndExecutesCorrectly) {
  scop::Scop scop = seidelChain(3, 10);
  EXPECT_TRUE(pipeline::detectPipeline(scop).hasPipeline());
  expectEquivalent(scop);
}

TEST(ShrinkingChainTest, DomainsShrink) {
  scop::Scop scop = shrinkingChain(4, 16, 3);
  EXPECT_GT(scop.statement(0).domain().size(),
            scop.statement(3).domain().size());
  expectEquivalent(scop);
}

TEST(ShrinkingChainTest, TooMuchShrinkThrows) {
  EXPECT_THROW((void)shrinkingChain(8, 10, 3), Error);
}

TEST(ShrinkingChainTest, LmaxBoundHolds) {
  // §4.4 / Fig. 5: with imbalanced stages the pipeline is bounded below
  // by the heaviest stage and above by the sequential sum.
  scop::Scop scop = shrinkingChain(4, 20, 4);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  sim::CostModel model;
  model.iterationCost = defaultStageWeights(4);
  for (double& w : model.iterationCost)
    w *= 1e-5;
  sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
  EXPECT_GE(r.makespan, sim::maxNestTime(scop, model) - 1e-12);
  EXPECT_LE(r.makespan, sim::sequentialTime(scop, model) + 1e-12);
  // And pipelining does overlap something.
  EXPECT_LT(r.makespan, 0.95 * sim::sequentialTime(scop, model));
}

TEST(FdtdChainTest, MultiWriteStagesPipelineCorrectly) {
  scop::Scop scop = fdtdChain(3, 9);
  EXPECT_EQ(scop.numStatements(), 3u);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  EXPECT_EQ(info.maps.size(), 2u); // consecutive stages
  expectEquivalent(scop);
}

TEST(FdtdChainTest, WritesAreUnionOfTwoArrays) {
  scop::Scop scop = fdtdChain(2, 8);
  EXPECT_EQ(scop.arraysWrittenBy(0).size(), 2u);
  // Both components must be injectively written.
  for (std::size_t arrayId : scop.arraysWrittenBy(0))
    EXPECT_TRUE(scop.writeRelation(0, arrayId).isInjective());
}

TEST(StageWeightsTest, HumpShaped) {
  auto w = defaultStageWeights(5);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_GT(w[2], w[0]);
  EXPECT_GT(w[2], w[4]);
}

TEST(MatmulRunnerTest, PipelinedMatchesSequentialAllVariants) {
  for (auto v : {MatmulVariant::NMM, MatmulVariant::NMMT,
                 MatmulVariant::GNMM, MatmulVariant::GNMMT}) {
    scop::Scop scop = matmulChain(v, 2, 10);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);

    MatmulRunner seq(v, 2, 10);
    tasking::executeSequential(scop, seq.executor());

    MatmulRunner par(v, 2, 10);
    auto layer = tasking::makeThreadPoolBackend(4);
    tasking::executeTaskProgram(prog, *layer, par.executor());
    EXPECT_EQ(par.fingerprint(), seq.fingerprint()) << variantName(v);
  }
}

TEST(MatmulRunnerTest, DeterministicAcrossRuns) {
  MatmulRunner a(MatmulVariant::GNMM, 2, 8);
  MatmulRunner b(MatmulVariant::GNMM, 2, 8);
  scop::Scop scop = matmulChain(MatmulVariant::GNMM, 2, 8);
  tasking::executeSequential(scop, a.executor());
  tasking::executeSequential(scop, b.executor());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

} // namespace
} // namespace pipoly::kernels
