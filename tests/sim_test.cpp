#include "sim/simulator.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "testing/fixtures.hpp"
#include "testing/placement_oracle.hpp"

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

TEST(TopologySimTest, UmaOneWorkerPerStageMatchesThePlacementFreeModel) {
  // One worker per stage on a uma topology is exactly the machine the
  // placement-free overload idealizes: every cross-stage transfer is
  // cross-worker at class 1.0 and no stages share a worker clock — the
  // two predictions must agree to the bit.
  ChannelFixture f = channelFixture(12);
  CostModel m = uniformModel(4, 1e-6);
  m.channelTokenOverhead = 2e-6;
  m.commCostPerByte = 1e-7;

  const codegen::StageLayout layout = codegen::stageLayout(f.prog, 4);
  const std::vector<std::size_t>& tasks = layout.stageTasks;
  const std::vector<rt::StageEdge> edges =
      opt::channelStageEdges(f.prog, layout, f.comm);
  const unsigned stages = static_cast<unsigned>(tasks.size());
  const rt::Topology uma = rt::Topology::uma(stages);
  const rt::Placement p = rt::placeStages(tasks, stages, edges, uma);

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

  const codegen::StageLayout layout = codegen::stageLayout(f.prog, 4);
  const std::vector<std::size_t>& tasks = layout.stageTasks;
  const std::vector<rt::StageEdge> edges =
      opt::channelStageEdges(f.prog, layout, f.comm);
  const rt::Topology uma = rt::Topology::uma(1);
  const rt::Placement p = rt::placeStages(tasks, 1, edges, uma);

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

  const codegen::StageLayout layout = codegen::stageLayout(f.prog, 4);
  const std::vector<std::size_t>& tasks = layout.stageTasks;
  const std::vector<rt::StageEdge> edges =
      opt::channelStageEdges(f.prog, layout, f.comm);
  const rt::Topology numa = rt::Topology::numa2(4, 8.0);
  // One stage per worker, forced: the heavy middle edge crosses domains.
  const rt::Placement onUma =
      rt::placeStages(tasks, 4, edges, rt::Topology::uma(4));
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

TEST(TopologySimTest, NumaPlacementBeatsTheLoadOnlyCuts) {
  // The NUMA partitioner checked deterministically in E22's setting (N=10,
  // optimized programs, 4 workers on 2x-numa with remote class 4). Its
  // baseline is the load-only cuts — placeStages on uma, the placement
  // every single-domain machine gets — repriced on the same topology.
  // The NUMA placement must win three ways: a strictly lower objective,
  // no byte across the domain boundary where the load-only cuts move
  // some (800/648/648 bytes for MH/P5/P8 here; E22 recorded 800/651/649
  // with the engine's ack-only channels counted), and a lower predicted
  // makespan.
  constexpr unsigned kWorkers = 4;
  const rt::Topology numa = rt::Topology::numa2(kWorkers, 4.0);
  struct Program {
    const char* name;
    scop::Scop scop;
  };
  const Program programs[] = {
      {"MH", testing::middleHeavyChain(10)},
      {"P5", kernels::buildProgram(kernels::programByName("P5"), 10)},
      {"P8", kernels::buildProgram(kernels::programByName("P8"), 10)},
  };
  for (const Program& p : programs) {
    const pipeline::PipelineInfo info = pipeline::detectPipeline(p.scop);
    const pipeline::CommInfo comm =
        pipeline::analyzeCommunication(p.scop, info);
    codegen::TaskProgram prog = codegen::compilePipeline(p.scop);
    opt::optimize(prog);
    const codegen::StageLayout layout = codegen::stageLayout(prog, kWorkers);
    const std::vector<rt::StageEdge> edges =
        opt::channelStageEdges(prog, layout, comm);

    const rt::Placement placed =
        rt::placeStages(layout.stageTasks, kWorkers, edges, numa);
    const rt::Placement loadOnly = testing::priceOn(
        rt::placeStages(layout.stageTasks, kWorkers, edges,
                        rt::Topology::uma(kWorkers)),
        layout.stageTasks, edges, numa);

    // Both objectives priced the same way, and the partitioner's own
    // figure is what its cuts cost on the topology.
    const double objective =
        testing::priceOn(placed, layout.stageTasks, edges, numa).objective;
    EXPECT_DOUBLE_EQ(placed.objective, objective) << p.name;
    EXPECT_LT(objective, loadOnly.objective) << p.name;
    EXPECT_EQ(placed.crossDomainBytes, 0u) << p.name;
    EXPECT_GT(loadOnly.crossDomainBytes, 0u) << p.name;

    // Near-free bodies and E22's 2000 ns per remote byte: the comm term
    // the two placements trade in dominates the prediction.
    CostModel m = uniformModel(p.scop.numStatements(), 1e-9);
    m.commCostPerByte = 2e-6;
    EXPECT_LT(simulateChannels(prog, comm, m, numa, placed).makespan,
              simulateChannels(prog, comm, m, numa, loadOnly).makespan)
        << p.name;
  }
}

} // namespace
} // namespace pipoly::sim
