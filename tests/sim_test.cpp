#include "sim/simulator.hpp"

#include "codegen/task_program.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"
#include "tasking/channel_backend.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
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

// A 4-statement serial chain whose only heavy channel edge is the middle
// one: S2 reads S1's full array, while S1 and S3 read just one element of
// their producer. On 2x-numa the topology-aware partitioner keeps S1 and
// S2 together (the PR 8 DP, forced to one stage per worker, must cut the
// heavy edge) — the fixture the placement-ranking tests are built on.
scop::Scop middleHeavyChain(pb::Value n) {
  scop::ScopBuilder b("middle_heavy");
  std::vector<std::size_t> arrays;
  const auto named = [](std::size_t k) {
    std::string name("A");
    name += std::to_string(k);
    return name;
  };
  for (std::size_t k = 0; k < 4; ++k)
    arrays.push_back(b.array(named(k), {n + 1, n + 1}));
  for (std::size_t k = 0; k < 4; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    S.read(arrays[k], {S.dim(0) + 1, S.dim(1) + 1}); // keeps the nest serial
    if (k == 2)
      S.read(arrays[1], {S.dim(0), S.dim(1)}); // heavy: the full array
    else if (k > 0)
      S.read(arrays[k - 1], {S.constant(0), S.constant(0)}); // one element
  }
  return b.build();
}

struct ChannelFixture {
  scop::Scop scop;
  pipeline::CommInfo comm;
  codegen::TaskProgram prog;
};

ChannelFixture channelFixture(pb::Value n) {
  scop::Scop scop = middleHeavyChain(n);
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  return {std::move(scop), std::move(comm), std::move(prog)};
}

std::vector<std::size_t> stageTaskCounts(const codegen::TaskProgram& prog) {
  std::vector<std::size_t> counts(prog.numStatements, 0);
  for (const codegen::Task& t : prog.tasks)
    ++counts[t.stmtIdx];
  return counts;
}

TEST(TopologySimTest, UmaOneWorkerPerStageMatchesThePlacementFreeModel) {
  // One worker per stage on a uma topology is exactly the machine the
  // placement-free overload idealizes: every cross-stage transfer is
  // cross-worker at class 1.0 and no stages share a worker clock — the
  // two predictions must agree to the bit.
  ChannelFixture f = channelFixture(12);
  CostModel m = uniformModel(4, 1e-6);
  m.channelTokenOverhead = 2e-6;
  m.commCostPerByte = 1e-7;

  const std::vector<std::size_t> tasks = stageTaskCounts(f.prog);
  const std::vector<rt::StageEdge> edges =
      f.comm.stageEdges({0, 1, 2, 3});
  const unsigned stages = static_cast<unsigned>(tasks.size());
  const rt::Placement p = rt::placeStagesBalanced(tasks, stages, edges);
  const rt::Topology uma = rt::Topology::uma(stages);

  const ChannelSimResult free = simulateChannels(f.prog, f.comm, m);
  const ChannelSimResult placed =
      simulateChannels(f.prog, f.comm, m, uma, p);
  EXPECT_DOUBLE_EQ(placed.makespan, free.makespan);
  EXPECT_DOUBLE_EQ(placed.commTime, free.commTime);
  EXPECT_EQ(placed.bytesMoved, free.bytesMoved);
  EXPECT_EQ(placed.crossDomainBytes, 0u);
}

TEST(TopologySimTest, SameWorkerEdgesPayNoTransferCost) {
  // All stages on one worker: tokens are local counter bumps, so with a
  // zero token overhead the predicted comm time vanishes entirely and
  // the makespan is the serial sum of the task bodies.
  ChannelFixture f = channelFixture(10);
  CostModel m = uniformModel(4, 1e-6);
  m.commCostPerByte = 1e-3; // would dominate if anything moved

  const std::vector<std::size_t> tasks = stageTaskCounts(f.prog);
  const std::vector<rt::StageEdge> edges =
      f.comm.stageEdges({0, 1, 2, 3});
  const rt::Placement p = rt::placeStagesBalanced(tasks, 1, edges);
  const rt::Topology uma = rt::Topology::uma(1);

  const ChannelSimResult r = simulateChannels(f.prog, f.comm, m, uma, p);
  EXPECT_DOUBLE_EQ(r.commTime, 0.0);
  EXPECT_EQ(r.crossDomainBytes, 0u);
  double serial = 0.0;
  for (const codegen::Task& t : f.prog.tasks)
    serial += static_cast<double>(t.iterations.size()) * 1e-6;
  EXPECT_NEAR(r.makespan, serial, 1e-12);
}

TEST(TopologySimTest, CrossDomainTrafficIsChargedTheClassCost) {
  // The same placement priced on uma vs 2x-numa: identical schedule
  // structure, but every cross-domain token pays the remote class, so
  // the numa prediction's comm time must be strictly larger and the
  // cross-domain byte accounting must light up.
  ChannelFixture f = channelFixture(12);
  CostModel m = uniformModel(4, 1e-6);
  m.commCostPerByte = 1e-7;

  const std::vector<std::size_t> tasks = stageTaskCounts(f.prog);
  const std::vector<rt::StageEdge> edges =
      f.comm.stageEdges({0, 1, 2, 3});
  const rt::Topology numa = rt::Topology::numa2(4, 8.0);
  // One stage per worker, forced: the heavy middle edge crosses domains.
  const rt::Placement onUma = rt::placeStagesBalanced(tasks, 4, edges);
  rt::Placement onNuma = onUma;
  for (std::size_t s = 0; s < onNuma.domainOfStage.size(); ++s)
    onNuma.domainOfStage[s] =
        numa.domainOfWorker[onNuma.workerOfStage[s]];

  const ChannelSimResult uma =
      simulateChannels(f.prog, f.comm, m, rt::Topology::uma(4), onUma);
  const ChannelSimResult remote =
      simulateChannels(f.prog, f.comm, m, numa, onNuma);
  EXPECT_GT(remote.commTime, uma.commTime);
  EXPECT_GT(remote.crossDomainBytes, 0u);
  EXPECT_EQ(uma.crossDomainBytes, 0u);
  EXPECT_EQ(remote.bytesMoved, uma.bytesMoved);
}

TEST(TopologySimTest, PredictedAndMeasuredPlacementRankingsAgree) {
  // The E22 acceptance check in miniature: take the two placements the
  // channel engine actually runs on 2x-numa (topology-aware vs the PR 8
  // baseline), predict both with the topology-aware simulator, measure
  // both with the engine under deterministic remote-transfer emulation —
  // the predicted ranking must match the measured one.
  ChannelFixture f = channelFixture(14);
  auto prog = std::make_shared<const codegen::TaskProgram>(f.prog);
  const rt::Topology numa = rt::Topology::numa2(4, 4.0);

  auto makePipe = [&](bool aware) {
    tasking::ChannelOptions options;
    options.numWorkers = 4;
    options.topology = numa;
    options.topologyAwarePlacement = aware;
    options.emulateRemoteNsPerByte = 1000.0;
    return std::make_unique<tasking::ChannelPipeline>(prog, options,
                                                      &f.comm);
  };
  auto pipeAware = makePipe(true);
  auto pipeBase = makePipe(false);

  // The fixture is built so the two placements genuinely differ: the
  // aware route keeps the heavy S1->S2 edge off the remote link.
  ASSERT_NE(pipeAware->placement().workerOfStage,
            pipeBase->placement().workerOfStage);
  ASSERT_LT(pipeAware->placement().commCost, pipeBase->placement().commCost);

  // Predicted, under a comm-dominant model mirroring the emulation.
  CostModel m = uniformModel(4, 1e-9);
  m.commCostPerByte = 1e-6; // 1000 ns/byte, the emulated link speed
  const double predictedAware =
      simulateChannels(f.prog, f.comm, m, numa, pipeAware->placement())
          .makespan;
  const double predictedBase =
      simulateChannels(f.prog, f.comm, m, numa, pipeBase->placement())
          .makespan;

  // Measured: min over repetitions of a real replay through the engine.
  auto measure = [&](tasking::ChannelPipeline& pipe) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      testing::InterpretedKernel kernel(f.scop);
      const auto start = std::chrono::steady_clock::now();
      pipe.replay(kernel.executor());
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }
    return best;
  };
  const double measuredAware = measure(*pipeAware);
  const double measuredBase = measure(*pipeBase);

  EXPECT_LT(predictedAware, predictedBase)
      << "simulator prefers the placement that cuts the heavy edge";
  EXPECT_LT(measuredAware, measuredBase)
      << "measured ranking disagrees with the predicted one (aware "
      << measuredAware << "s vs baseline " << measuredBase << "s)";
}

} // namespace
} // namespace pipoly::sim
