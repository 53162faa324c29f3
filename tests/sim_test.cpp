#include "sim/simulator.hpp"

#include "codegen/task_program.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "tasking/channel_backend.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace pipoly::sim {
namespace {

CostModel uniformModel(std::size_t numStatements, double cost) {
  CostModel m;
  m.iterationCost.assign(numStatements, cost);
  return m;
}

TEST(SimulatorTest, SequentialTimeIsSumOfWork) {
  scop::Scop scop = testing::chain(3, 9); // 3 nests, 9x9 iterations each
  CostModel m = uniformModel(3, 1.0);
  EXPECT_DOUBLE_EQ(sequentialTime(scop, m), 243.0);
  EXPECT_DOUBLE_EQ(maxNestTime(scop, m), 81.0);
}

TEST(SimulatorTest, OneWorkerEqualsTotalWork) {
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  SimResult r = simulate(prog, m, SimConfig{1});
  EXPECT_DOUBLE_EQ(r.makespan, r.totalWork);
  EXPECT_DOUBLE_EQ(r.totalWork, sequentialTime(scop, m));
}

TEST(SimulatorTest, PaperEquation5Bounds) {
  // time(L_max) <= time(pipeline) <= time(sequential) for several kernels
  // and worker counts.
  for (auto scop : {testing::chain(4, 9), testing::listing3(16)}) {
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    CostModel m = uniformModel(scop.numStatements(), 1.0);
    for (unsigned workers : {2u, 4u, 8u}) {
      SimResult r = simulate(prog, m, SimConfig{workers});
      EXPECT_GE(r.makespan, maxNestTime(scop, m) - 1e-9);
      EXPECT_LE(r.makespan, sequentialTime(scop, m) + 1e-9);
    }
  }
}

TEST(SimulatorTest, PipeliningBeatsSequentialOnChains) {
  // A chain of equal nests with element-wise coupling overlaps almost
  // completely: the makespan with enough workers approaches
  // time(L_max) plus the pipeline fill.
  scop::Scop scop = testing::chain(4, 15);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(4, 1.0);
  SimResult r = simulate(prog, m, SimConfig{8});
  const double seq = sequentialTime(scop, m);
  EXPECT_LT(r.makespan, 0.55 * seq) << "expected >1.8x speedup on a 4-chain";
}

TEST(SimulatorTest, MoreWorkersNeverSlower) {
  scop::Scop scop = testing::listing3(16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  double prev = simulate(prog, m, SimConfig{1}).makespan;
  for (unsigned workers : {2u, 3u, 4u, 8u}) {
    double cur = simulate(prog, m, SimConfig{workers}).makespan;
    EXPECT_LE(cur, prev + 1e-9) << workers << " workers";
    prev = cur;
  }
}

TEST(SimulatorTest, MakespanAtLeastCriticalPath) {
  scop::Scop scop = testing::listing3(16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  for (unsigned workers : {1u, 2u, 8u}) {
    SimResult r = simulate(prog, m, SimConfig{workers});
    EXPECT_GE(r.makespan, r.criticalPath - 1e-9);
  }
}

TEST(SimulatorTest, TaskOverheadIncreasesMakespan) {
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel cheap = uniformModel(3, 1.0);
  CostModel costly = cheap;
  costly.taskOverhead = 0.5;
  EXPECT_GT(simulate(prog, costly, SimConfig{4}).makespan,
            simulate(prog, cheap, SimConfig{4}).makespan);
}

TEST(SimulatorTest, UtilizationBounded) {
  scop::Scop scop = testing::chain(4, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(4, 1.0);
  SimResult r = simulate(prog, m, SimConfig{4});
  EXPECT_GT(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.0 + 1e-9);
}

TEST(SimulatorTest, HeterogeneousCostsShiftTheBottleneck) {
  // Make the last nest dominant; the makespan must be at least its time
  // (eq. 5's L_max bound) even with many workers.
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m;
  m.iterationCost = {1.0, 1.0, 10.0};
  SimResult r = simulate(prog, m, SimConfig{8});
  EXPECT_GE(r.makespan, maxNestTime(scop, m) - 1e-9);
}

struct ChannelFixture {
  scop::Scop scop;
  pipeline::CommInfo comm;
  codegen::TaskProgram prog;
};

ChannelFixture channelFixture(pb::Value n) {
  scop::Scop scop = testing::middleHeavyChain(n);
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  return {std::move(scop), std::move(comm), std::move(prog)};
}

/// The channel engine's own placement of `prog` on `workers` workers. A
/// pipeline that is never replayed starts no worker thread.
rt::Placement enginePlacement(const ChannelFixture& f, unsigned workers) {
  tasking::ChannelOptions options;
  options.numWorkers = workers;
  return tasking::ChannelPipeline(f.prog, options, &f.comm).placement();
}

TEST(TopologySimTest, UmaOneWorkerPerStageMatchesThePlacementFreeModel) {
  // One worker per stage is exactly the machine the placement-free
  // overload idealizes: every cross-stage transfer is cross-worker and
  // no stages share a worker clock — the two predictions must agree to
  // the bit.
  ChannelFixture f = channelFixture(12);
  CostModel m = uniformModel(4, 1e-6);
  m.channelTokenOverhead = 2e-6;
  m.commCostPerByte = 1e-7;

  const rt::Placement p = enginePlacement(f, 4);
  ASSERT_EQ(p.ownedStages.size(), 4u);
  for (const std::vector<std::size_t>& owned : p.ownedStages)
    ASSERT_EQ(owned.size(), 1u);

  const ChannelSimResult free = simulateChannels(f.prog, f.comm, m, 4);
  const ChannelSimResult placed = simulateChannels(f.prog, f.comm, m, p);
  EXPECT_DOUBLE_EQ(placed.makespan, free.makespan);
  EXPECT_DOUBLE_EQ(placed.commTime, free.commTime);
  EXPECT_EQ(placed.bytesMoved, free.bytesMoved);
}

TEST(TopologySimTest, SameWorkerEdgesPayNoTransferCost) {
  // All stages on one worker: tokens are local counter bumps, so with a
  // zero token overhead the predicted comm time vanishes entirely and
  // the makespan is the serial sum of the task bodies.
  ChannelFixture f = channelFixture(10);
  CostModel m = uniformModel(4, 1e-6);
  m.commCostPerByte = 1e-3; // would dominate if anything moved

  const ChannelSimResult r =
      simulateChannels(f.prog, f.comm, m, enginePlacement(f, 1));
  EXPECT_DOUBLE_EQ(r.commTime, 0.0);
  double serial = 0.0;
  for (const codegen::Task& t : f.prog.tasks)
    serial += static_cast<double>(t.iterations.size()) * 1e-6;
  EXPECT_NEAR(r.makespan, serial, 1e-12);
}

} // namespace
} // namespace pipoly::sim
