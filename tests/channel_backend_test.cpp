// Tests for the channel execution route (tasking/channel_backend, whose
// one front end is ChannelPipeline): differential bit-identity against
// the sequential oracle across Table-9 × optimizer on/off × worker
// counts, one stage per statement, the shared-state streaming regression
// for the transitive-reduction hazard (batch acks must follow the full
// statement readership, not just the surviving task edges — on BOTH the
// task-depend graph and the channel network), statementReadership,
// retainedBytes accounting and topology-aware placement.

#include "tasking/channel_backend.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/placement_oracle.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace pipoly::tasking {
namespace {

std::shared_ptr<const codegen::TaskProgram>
compileShared(const scop::Scop& scop, bool optimized) {
  auto prog =
      std::make_shared<codegen::TaskProgram>(codegen::compilePipeline(scop));
  if (optimized)
    opt::optimize(*prog);
  return prog;
}

TEST(ChannelDifferentialTest, Table9ReplayMatchesSequentialEverywhere) {
  // P1–P10 × optimizer on/off × worker counts: one replay through the
  // channel network must reproduce the sequential fingerprint bit for
  // bit, with and without comm-sized rings. Every construction builds one
  // stage per statement (chain fusion never merges statements) and
  // reports it once as the channel.stages counter.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);

    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      trace::Session session;
      session.start();
      std::size_t constructions = 0;
      for (unsigned workers : {1u, 2u, 4u}) {
        for (const pipeline::CommInfo* sized : {
                 static_cast<const pipeline::CommInfo*>(nullptr), &comm}) {
          ChannelOptions options;
          options.numWorkers = workers;
          ChannelPipeline pipe(prog, options, sized);
          ++constructions;
          EXPECT_EQ(pipe.numStages(), scop.numStatements())
              << spec.name << " opt " << optimized;
          testing::InterpretedKernel kernel(scop);
          pipe.replay(kernel.executor());
          EXPECT_EQ(kernel.fingerprint(), expected)
              << spec.name << " opt " << optimized << " workers " << workers
              << (sized != nullptr ? " comm-sized" : " default-sized");
        }
      }
      session.stop();
      std::vector<double> stages;
      for (const trace::TraceEvent& e : session.trace().events)
        if (e.kind == trace::EventKind::Counter && e.name == "channel.stages")
          stages.push_back(e.value);
      EXPECT_EQ(stages,
                std::vector<double>(constructions, static_cast<double>(
                                                       scop.numStatements())))
          << spec.name << " opt " << optimized;
    }
  }
}

TEST(ChannelStreamingTest, SharedStateStreamEqualsBackToBackRuns) {
  // THE regression test for the transitive-reduction streaming bugs: with
  // state shared across batches (SuiteRunner's real arrays), streaming
  // must equal back-to-back sequential runs on both replay routes. The
  // optimizer's transitive reduction removes direct producer→reader task
  // edges implied by longer paths (P5: S1→S3, S1→S4), so a route whose
  // write-after-read barrier follows only surviving edges lets the writer
  // lap distant readers — caught here at workers >= 2.
  constexpr std::size_t kBatches = 3;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    kernels::SuiteRunner runner(spec, scop, 1);
    for (std::size_t b = 0; b < kBatches; ++b)
      executeSequential(scop, runner.executor());
    const std::uint64_t expected = runner.fingerprint();
    const BatchStatementExecutor exec =
        [&](std::size_t, std::size_t s, const pb::Tuple& it) {
          runner.execute(s, it);
        };

    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      for (unsigned threads : {2u, 4u}) {
        ReplayOptions taskDepOptions;
        taskDepOptions.numThreads = threads;
        CompiledPipeline taskDep(prog, taskDepOptions);
        ChannelOptions channelOptions;
        channelOptions.numWorkers = threads;
        ChannelPipeline channel(prog, channelOptions, &comm);
        for (bool onChannel : {false, true}) {
          // Repeat: skew bugs are scheduling-dependent, one run can luck
          // through.
          for (int rep = 0; rep < 3; ++rep) {
            runner.reset();
            if (onChannel)
              channel.replayBatches(kBatches, exec);
            else
              taskDep.replayBatches(kBatches, exec);
            ASSERT_EQ(runner.fingerprint(), expected)
                << spec.name << " opt " << optimized << " threads " << threads
                << (onChannel ? " channel" : " taskdep") << " rep " << rep;
          }
        }
      }
    }
  }
}

TEST(ChannelReadershipTest, RecordedReadershipSurvivesTransitiveReduction) {
  // statementReadership is the relation both streaming barriers are built
  // from. The recorded form (filled at lowering) must not change under
  // opt::optimize, and the reachability fallback for hand-assembled
  // programs must over-approximate it.
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 10);
  auto prog = codegen::compilePipeline(scop);
  const std::vector<std::vector<std::size_t>> before =
      codegen::statementReadership(prog);
  opt::optimize(prog);
  const std::vector<std::vector<std::size_t>> after =
      codegen::statementReadership(prog);
  EXPECT_EQ(before, after);

  // P5's spec reads: S1's output is read by S2, S3 and S4 (0-based 1,2,3).
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0], (std::vector<std::size_t>{1, 2, 3}));

  // The reduced task graph no longer carries every readership pair as a
  // direct edge — the very reason the relation is recorded separately.
  std::set<std::pair<std::size_t, std::size_t>> direct;
  for (const codegen::Task& t : prog.tasks)
    for (const codegen::TaskDep& dep : t.in)
      if (dep.idx >= 0)
        direct.emplace(static_cast<std::size_t>(dep.idx), t.stmtIdx);
  bool missing = false;
  for (std::size_t s = 0; s < after.size(); ++s)
    for (std::size_t r : after[s])
      missing = missing || direct.find({s, r}) == direct.end();
  EXPECT_TRUE(missing)
      << "transitive reduction kept every direct edge; the regression "
         "scenario no longer applies to P5";

  // Fallback closure (stmtReaders absent) over-approximates the recorded
  // relation.
  codegen::TaskProgram stripped = prog;
  stripped.stmtReaders.clear();
  const std::vector<std::vector<std::size_t>> fallback =
      codegen::statementReadership(stripped);
  ASSERT_EQ(fallback.size(), after.size());
  for (std::size_t s = 0; s < after.size(); ++s)
    EXPECT_TRUE(std::includes(fallback[s].begin(), fallback[s].end(),
                              after[s].begin(), after[s].end()))
        << "stmt " << s;
}

TEST(ChannelRetainedBytesTest, RingsAndTablesAreCountedAndStable) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 10);
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  auto prog = compileShared(scop, true);

  // The task-depend route retains its frozen graph (ready counters + CSR
  // adjacency + group tables); the channel route its rings and
  // stage/edge tables.
  ReplayOptions taskDepOptions;
  taskDepOptions.numThreads = 2;
  CompiledPipeline taskDep(prog, taskDepOptions);
  EXPECT_GT(taskDep.retainedBytes(), 0u);

  ChannelOptions channelOptions;
  channelOptions.numWorkers = 2;
  ChannelPipeline pipe(prog, channelOptions, &comm);
  const std::size_t before = pipe.retainedBytes();
  EXPECT_GT(before, 0u);
  testing::InterpretedKernel kernel(scop);
  pipe.replay(kernel.executor());
  pipe.replayBatches(4, [&](std::size_t, std::size_t s, const pb::Tuple& it) {
    kernel.execute(s, it);
  });
  // Replays reuse the high-water structures: no growth between runs.
  EXPECT_EQ(pipe.retainedBytes(), before);
  EXPECT_EQ(pipe.stats().replays, 2u);
  EXPECT_EQ(pipe.stats().batches, 5u);
}

TEST(ChannelPlacementTest, UmaTopologyMatchesTheTopologyFreePlacement) {
  // The engine-level half of the uma differential: a ChannelPipeline
  // given an explicit uma topology must choose the same stage-to-worker
  // assignment, byte for byte, as the PR 8 topology-free route.
  for (const char* name : {"P1", "P5", "P8"}) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 10);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, true);
    for (unsigned workers : {1u, 2u, 4u}) {
      ChannelOptions plain;
      plain.numWorkers = workers;
      ChannelPipeline base(prog, plain, &comm);

      ChannelOptions uma = plain;
      uma.topology = rt::Topology::uma(workers);
      ChannelPipeline topo(prog, uma, &comm);

      EXPECT_EQ(topo.placement().ownedStages, base.placement().ownedStages)
          << name << " workers " << workers;
      EXPECT_EQ(topo.placement().workerOfStage,
                base.placement().workerOfStage);
      EXPECT_EQ(topo.placement().maxLoad, base.placement().maxLoad);
      EXPECT_EQ(topo.placement().crossWorkerBytes,
                base.placement().crossWorkerBytes);
    }
  }
}

TEST(ChannelPlacementTest, NumaTopologyKeepsReplayBitIdentical) {
  // Placement, pinning and larger cross-domain rings change the
  // schedule, never the values: every topology must reproduce the
  // sequential fingerprint. The near-uniform 2-worker case is one where
  // P5 and P8 really place across the domain boundary.
  struct Machine {
    const char* name;
    unsigned workers;
    rt::Topology topology;
  };
  const Machine machines[] = {
      {"2x-numa", 4, rt::Topology::fromSpec("2x-numa", 4)},
      {"ring", 4, rt::Topology::fromSpec("ring", 4)},
      {"numa2(2, 1.25)", 2, rt::Topology::numa2(2, 1.25)},
  };
  std::uint64_t crossDomainBytes = 0;
  for (const char* name : {"P1", "P5", "P8"}) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, true);
    for (const Machine& m : machines) {
      ChannelOptions options;
      options.numWorkers = m.workers;
      options.topology = m.topology;
      ChannelPipeline pipe(prog, options, &comm);
      crossDomainBytes += pipe.placement().crossDomainBytes;
      testing::InterpretedKernel kernel(scop);
      pipe.replay(kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected) << name << " " << m.name;
      // Streaming under the same machine model.
      kernel.reset();
      pipe.replayBatches(3, [&](std::size_t, std::size_t s,
                                const pb::Tuple& it) {
        kernel.execute(s, it);
      });
    }
  }
  EXPECT_GT(crossDomainBytes, 0u);
}

TEST(ChannelPlacementTest, CrossDomainRingsAreSizedUpByTheCostClass) {
  // A cross-domain edge of class c > 1 gets a ring ceil(c) times the uma
  // capacity (to amortize the slower link), so a pipeline whose
  // placement crosses domains retains strictly more ring storage than
  // the same placement without a topology. Optimized P5 on two workers
  // over two near-uniform domains splits at the domain boundary.
  const scop::Scop scop =
      kernels::buildProgram(kernels::programByName("P5"), 10);
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  auto prog = compileShared(scop, true);

  ChannelOptions plain;
  plain.numWorkers = 2;
  ChannelPipeline base(prog, plain, &comm);

  ChannelOptions numa = plain;
  numa.topology = rt::Topology::numa2(2, 1.25);
  ChannelPipeline topo(prog, numa, &comm);

  ASSERT_GT(topo.placement().crossDomainBytes, 0u);
  ASSERT_EQ(topo.placement().ownedStages, base.placement().ownedStages);
  EXPECT_GT(topo.retainedBytes(), base.retainedBytes());
  // And it still computes the right answer.
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  testing::InterpretedKernel kernel(scop);
  topo.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

TEST(ChannelPlacementTest, DiagnosticsDependOnlyOnOwnedStagesAndTopology) {
  // The engine's placement diagnostics must be what its owned stages
  // cost on the topology it was given, recomputed by testing::priceOn
  // from the stage edges alone. Unoptimized programs, so every engine
  // channel is one analyzed pipeline edge. P10 at N=8 on two workers
  // over two near-uniform domains crosses the boundary, so the domain
  // pricing is really exercised.
  struct Case {
    const char* name;
    pb::Value n;
    unsigned workers;
    rt::Topology topology;
  };
  const Case cases[] = {
      {"P5", 10, 4, rt::Topology::fromSpec("2x-numa", 4)},
      {"P10", 8, 2, rt::Topology::numa2(2, 1.25)},
  };
  bool anyCrossDomain = false;
  for (const Case& c : cases) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(c.name), c.n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, false);
    const codegen::StageLayout layout = codegen::stageLayout(*prog);
    const std::vector<rt::StageEdge> edges = comm.stageEdges(layout.stmtOf);
    ASSERT_FALSE(edges.empty()) << c.name;

    ChannelOptions options;
    options.numWorkers = c.workers;
    options.topology = c.topology;
    const ChannelPipeline pipe(prog, options, &comm);
    const rt::Placement& p = pipe.placement();
    const rt::Placement priced =
        testing::priceOn(p, layout.stageTasks, edges, c.topology);
    EXPECT_EQ(p.workerOfStage, priced.workerOfStage) << c.name;
    EXPECT_EQ(p.domainOfStage, priced.domainOfStage) << c.name;
    EXPECT_EQ(p.crossDomainBytes, priced.crossDomainBytes) << c.name;
    EXPECT_DOUBLE_EQ(p.commCost, priced.commCost) << c.name;
    anyCrossDomain = anyCrossDomain || priced.crossDomainBytes > 0;
  }
  EXPECT_TRUE(anyCrossDomain);
}

} // namespace
} // namespace pipoly::tasking
