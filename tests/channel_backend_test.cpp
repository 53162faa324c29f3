// Tests for the channel execution route (tasking/channel_backend):
// differential bit-identity against the sequential oracle across Table-9
// × optimizer on/off × worker counts, the shared-state streaming
// regression for the transitive-reduction hazard (batch acks must follow
// the full statement readership, not just the surviving task edges — on
// BOTH the task-depend graph and the channel network), the generic-route
// TaskingLayer, statementReadership, and retainedBytes accounting.

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

#include <gtest/gtest.h>

#include <algorithm>
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
  // bit, with and without comm-sized rings.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);

    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      for (unsigned workers : {1u, 2u, 4u}) {
        for (const pipeline::CommInfo* sized : {
                 static_cast<const pipeline::CommInfo*>(nullptr), &comm}) {
          ChannelOptions options;
          options.numWorkers = workers;
          ChannelPipeline pipe(prog, options, sized);
          testing::InterpretedKernel kernel(scop);
          pipe.replay(kernel.executor());
          EXPECT_EQ(kernel.fingerprint(), expected)
              << spec.name << " opt " << optimized << " workers " << workers
              << (sized != nullptr ? " comm-sized" : " default-sized");
        }
      }
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

    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      for (unsigned threads : {2u, 4u}) {
        for (bool channels : {false, true}) {
          ReplayOptions options;
          options.numThreads = threads;
          options.channels = channels;
          options.comm = channels ? &comm : nullptr;
          CompiledPipeline pipe(prog, options);
          EXPECT_EQ(pipe.channelRoute(), channels);
          // Repeat: skew bugs are scheduling-dependent, one run can luck
          // through.
          for (int rep = 0; rep < 3; ++rep) {
            runner.reset();
            pipe.replayBatches(kBatches, [&](std::size_t, std::size_t s,
                                             const pb::Tuple& it) {
              runner.execute(s, it);
            });
            ASSERT_EQ(runner.fingerprint(), expected)
                << spec.name << " opt " << optimized << " threads " << threads
                << (channels ? " channel" : " taskdep") << " rep " << rep;
          }
        }
      }
    }
  }
}

TEST(ChannelBackendTest, GenericRouteLayerMatchesSequential) {
  // The fourth TaskingLayer: executeTaskProgram spawns through the
  // channel engine via createTask, exercising the buffering/stage
  // partitioning path instead of ChannelPipeline's direct compile.
  for (const char* name : {"P1", "P5", "P8"}) {
    const kernels::ProgramSpec& spec = kernels::programByName(name);
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      ChannelOptions options;
      options.numWorkers = 2;
      auto layer = makeChannelBackend(options);
      ASSERT_NE(layer, nullptr);
      testing::InterpretedKernel kernel(scop);
      executeTaskProgram(*prog, *layer, kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected) << name << " opt " << optimized;
      // The layer is reusable across runs.
      kernel.reset();
      executeTaskProgram(*prog, *layer, kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected) << name << " rerun";
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

  ReplayOptions taskDepOptions;
  taskDepOptions.numThreads = 2;
  CompiledPipeline taskDep(prog, taskDepOptions);
  ReplayOptions channelOptions;
  channelOptions.numThreads = 2;
  channelOptions.channels = true;
  channelOptions.comm = &comm;
  CompiledPipeline channel(prog, channelOptions);

  // The frozen graph (ready counters + CSR adjacency + group tables) is
  // retained on both; the channel route additionally holds the rings and
  // stage/edge tables.
  EXPECT_GT(taskDep.retainedBytes(), 0u);
  EXPECT_GT(channel.retainedBytes(), taskDep.retainedBytes());

  ChannelOptions direct;
  direct.numWorkers = 2;
  ChannelPipeline pipe(prog, direct, &comm);
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

TEST(ChannelBackoffTest, StrictParseAndRejectContract) {
  // PIPOLY_CHANNEL_BACKOFF follows PIPOLY_POOL_WAKE_CAP's contract: a
  // positive decimal integer or a hard error — never a silent default.
  EXPECT_EQ(parseChannelBackoff("1").value_or(0), 1u);
  EXPECT_EQ(parseChannelBackoff("64").value_or(0), 64u);
  EXPECT_EQ(parseChannelBackoff("16384").value_or(0), 16384u);
  EXPECT_EQ(parseChannelBackoff("  42  ").value_or(0), 42u);

  EXPECT_FALSE(parseChannelBackoff(nullptr).has_value());
  EXPECT_FALSE(parseChannelBackoff("").has_value());
  EXPECT_FALSE(parseChannelBackoff("   ").has_value());
  EXPECT_FALSE(parseChannelBackoff("0").has_value());
  EXPECT_FALSE(parseChannelBackoff("-1").has_value());
  EXPECT_FALSE(parseChannelBackoff("+8").has_value());
  EXPECT_FALSE(parseChannelBackoff("abc").has_value());
  EXPECT_FALSE(parseChannelBackoff("12abc").has_value());
  EXPECT_FALSE(parseChannelBackoff("12 34").has_value());
  EXPECT_FALSE(parseChannelBackoff("0x10").has_value());
  EXPECT_FALSE(parseChannelBackoff("3.5").has_value());
  EXPECT_FALSE(parseChannelBackoff("99999999999999999999").has_value());
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
  // Placement, pinning, larger cross-domain rings and the synthetic
  // remote-transfer emulation change the schedule, never the values:
  // every topology variant must reproduce the sequential fingerprint.
  for (const char* name : {"P1", "P5", "P8"}) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, true);
    for (const char* preset : {"2x-numa", "ring"}) {
      for (bool aware : {true, false}) {
        ChannelOptions options;
        options.numWorkers = 4;
        options.topology = rt::Topology::fromSpec(preset, 4);
        options.topologyAwarePlacement = aware;
        options.emulateRemoteNsPerByte = 0.5;
        ChannelPipeline pipe(prog, options, &comm);
        EXPECT_EQ(pipe.placement().topologyAware, aware);
        testing::InterpretedKernel kernel(scop);
        pipe.replay(kernel.executor());
        EXPECT_EQ(kernel.fingerprint(), expected)
            << name << " " << preset << (aware ? " aware" : " baseline");
        // Streaming under the same machine model.
        kernel.reset();
        pipe.replayBatches(3, [&](std::size_t, std::size_t s,
                                  const pb::Tuple& it) {
          kernel.execute(s, it);
        });
      }
    }
  }
}

TEST(ChannelPlacementTest, CrossDomainRingsAreSizedUpByTheCostClass) {
  // A cross-domain edge of class c > 1 gets a ring roughly c times the
  // uma capacity (to amortize the slower link), so the topology pipeline
  // retains strictly more ring storage whenever placement crosses
  // domains.
  const scop::Scop scop =
      kernels::buildProgram(kernels::programByName("P5"), 10);
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  auto prog = compileShared(scop, true);

  ChannelOptions plain;
  plain.numWorkers = 4;
  ChannelPipeline base(prog, plain, &comm);

  ChannelOptions numa = plain;
  numa.topology = rt::Topology::numa2(4, 4.0);
  ChannelPipeline topo(prog, numa, &comm);

  if (topo.placement().crossDomainBytes > 0) {
    EXPECT_GT(topo.retainedBytes(), base.retainedBytes());
  }
  // And it still computes the right answer.
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  testing::InterpretedKernel kernel(scop);
  topo.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

} // namespace
} // namespace pipoly::tasking
