#include "pipeline/detect.hpp"

#include "codegen/task_program.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/legacy_blocking.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pipeline {
namespace {

TEST(DetectOptionsTest, CoarseningReducesTaskCount) {
  scop::Scop scop = testing::listing1(20);
  std::size_t prev = detectPipeline(scop).totalBlocks();
  for (std::size_t factor : {2u, 4u, 8u}) {
    DetectOptions opt;
    opt.coarsening = factor;
    std::size_t blocks = detectPipeline(scop, opt).totalBlocks();
    EXPECT_LT(blocks, prev) << "factor " << factor;
    prev = blocks;
  }
}

TEST(DetectOptionsTest, CoarseningKeepsPartition) {
  scop::Scop scop = testing::listing3(16);
  DetectOptions opt;
  opt.coarsening = 3;
  PipelineInfo info = detectPipeline(scop, opt);
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    const pb::IntMap expansion = testing::expansionMap(scop, info, s);
    std::size_t total = 0;
    for (const pb::Tuple& rep : st.blockReps.points())
      total += imagesOf(expansion, rep).size();
    EXPECT_EQ(total, scop.statement(s).domain().size());
  }
}

TEST(DetectOptionsTest, CoarseningFactorOneIsDefault) {
  scop::Scop scop = testing::listing1(12);
  DetectOptions opt;
  opt.coarsening = 1;
  EXPECT_EQ(detectPipeline(scop, opt).totalBlocks(),
            detectPipeline(scop).totalBlocks());
}

/// Every options combination must still produce a correct program: the
/// strongest check is end-to-end execution equivalence.
class DetectOptionsCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(DetectOptionsCorrectnessTest, ExecutionMatchesSequential) {
  auto [mode, coarsening] = GetParam();
  DetectOptions opt;
  opt.integration = mode == 0 ? DetectOptions::Integration::LexminUnion
                              : DetectOptions::Integration::FirstMapOnly;
  opt.coarsening = coarsening;

  for (auto scop : {testing::listing1(14), testing::listing3(14),
                    testing::chain(4, 9)}) {
    codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
    EXPECT_NO_THROW(prog.validate(scop));
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    testing::InterpretedKernel kernel(scop);
    auto layer = tasking::makeThreadPoolBackend(4);
    tasking::executeTaskProgram(prog, *layer, kernel.executor());
    EXPECT_EQ(kernel.fingerprint(), expected)
        << "mode=" << mode << " coarsening=" << coarsening;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetectOptionsCorrectnessTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{16})));

TEST(DetectOptionsTest, IntegratedBlocksBeatFirstMapOnly) {
  // §4.2's claim (Fig. 4): the optimal (integrated) blocks maximise the
  // number of concurrently runnable blocks. On Listing 3 the integrated
  // blocking must never yield a worse simulated makespan.
  scop::Scop scop = testing::listing3(20);
  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 1.0);

  codegen::TaskProgram integrated = codegen::compilePipeline(scop);
  DetectOptions firstOnly;
  firstOnly.integration = DetectOptions::Integration::FirstMapOnly;
  codegen::TaskProgram naive = codegen::compilePipeline(scop, firstOnly);

  double mIntegrated =
      sim::simulate(integrated, model, sim::SimConfig{8}).makespan;
  double mNaive = sim::simulate(naive, model, sim::SimConfig{8}).makespan;
  EXPECT_LE(mIntegrated, mNaive + 1e-9);
}

TEST(DetectOptionsTest, ExtremeCoarseningDegeneratesToOneTaskPerNest) {
  scop::Scop scop = testing::listing1(12);
  DetectOptions opt;
  opt.coarsening = 1000000;
  PipelineInfo info = detectPipeline(scop, opt);
  for (const StatementPipelineInfo& st : info.statements)
    EXPECT_EQ(st.blockReps.size(), 1u);
}

} // namespace
} // namespace pipoly::pipeline
