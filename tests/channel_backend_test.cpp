// Tests for the channel execution route (tasking/channel_backend, whose
// one front end is ChannelPipeline): differential bit-identity against
// the sequential oracle across Table-9 × optimizer on/off × worker
// counts, one stage per statement, a source statement's lanes (exact
// reduction fingerprints, stage counts shared with the simulator, an
// unchanged optimizer), the shared-state streaming regression
// for the transitive-reduction hazard (batch acks must follow the full
// statement readership, not just the surviving task edges — on BOTH the
// task-depend graph and the channel network), statementReadership,
// retainedBytes accounting and the placement counters.

#include "tasking/channel_backend.hpp"

#include "codegen/task_program.hpp"
#include "frontend/frontend.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/reduction_runner.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "sim/simulator.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "testing/interpreted_kernel.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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
  // P1–P10 × optimizer on/off × every worker count from 1 to one past
  // the stage count: one replay through the channel network must
  // reproduce the sequential fingerprint bit for bit, with and without
  // comm-sized rings, under every ownership the placement hands out —
  // from all stages on one worker to one stage per worker with an idle
  // one. Every construction builds one stage per statement (chain fusion
  // never merges statements) and reports it once as the channel.stages
  // counter, next to its placement counters.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    const unsigned maxWorkers =
        static_cast<unsigned>(scop.numStatements()) + 1;

    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      trace::Session session;
      session.start();
      std::map<std::string, std::vector<double>> expectedCounters;
      for (unsigned workers = 1; workers <= maxWorkers; ++workers) {
        for (const pipeline::CommInfo* sized : {
                 static_cast<const pipeline::CommInfo*>(nullptr), &comm}) {
          ChannelOptions options;
          options.numWorkers = workers;
          ChannelPipeline pipe(prog, options, sized);
          EXPECT_EQ(pipe.numStages(), scop.numStatements())
              << spec.name << " opt " << optimized;
          EXPECT_EQ(pipe.numWorkers(),
                    std::min<std::size_t>(workers, scop.numStatements()));
          const rt::Placement& placed = pipe.placement();
          expectedCounters["channel.stages"].push_back(
              static_cast<double>(scop.numStatements()));
          expectedCounters["channel.placement.workers"].push_back(
              pipe.numWorkers());
          expectedCounters["channel.placement.max_load"].push_back(
              static_cast<double>(placed.maxLoad));
          expectedCounters["channel.placement.cross_worker_bytes"].push_back(
              static_cast<double>(placed.crossWorkerBytes));
          testing::InterpretedKernel kernel(scop);
          pipe.replay(kernel.executor());
          EXPECT_EQ(kernel.fingerprint(), expected)
              << spec.name << " opt " << optimized << " workers " << workers
              << (sized != nullptr ? " comm-sized" : " default-sized");
        }
      }
      session.stop();
      std::map<std::string, std::vector<double>> counters;
      for (const trace::TraceEvent& e : session.trace().events)
        if (e.kind == trace::EventKind::Counter &&
            expectedCounters.count(e.name) != 0)
          counters[e.name].push_back(e.value);
      EXPECT_EQ(counters, expectedCounters)
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

std::size_t countSpans(const trace::Trace& t, const std::string& name) {
  return static_cast<std::size_t>(std::count_if(
      t.events.begin(), t.events.end(), [&](const trace::TraceEvent& e) {
        return e.kind == trace::EventKind::Begin && e.name == name;
      }));
}

TEST(ChannelLifecycleTest, DestroyWithoutRunStartsNoWorker) {
  // Building a pipeline only plans it; the workers start on the first
  // run. A pipeline that is never run spawns nothing and tears down
  // without waiting on any thread.
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 8);
  auto prog = compileShared(scop, true);
  trace::Session session;
  session.start();
  for (unsigned workers : {1u, 2u, 4u}) {
    ChannelOptions options;
    options.numWorkers = workers;
    const ChannelPipeline pipe(prog, options);
    EXPECT_EQ(pipe.numWorkers(), std::min<unsigned>(workers, 4));
  }
  session.stop();
  EXPECT_EQ(countSpans(session.trace(), "channel.compile"), 3u);
  EXPECT_EQ(countSpans(session.trace(), "channel.spawn"), 0u);
}

TEST(ChannelLifecycleTest, FirstRunSpawnsOnceAndMatchesTheOracle) {
  // At 1–4 workers the first run starts the workers (one channel.spawn
  // span, inside channel.run, only when there is more than one worker)
  // and reproduces the sequential fingerprint; later runs reuse them.
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 8);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  auto prog = compileShared(scop, true);
  for (unsigned workers : {1u, 2u, 3u, 4u}) {
    ChannelOptions options;
    options.numWorkers = workers;
    ChannelPipeline pipe(prog, options);
    trace::Session session;
    session.start();
    for (int run = 0; run < 3; ++run) {
      testing::InterpretedKernel kernel(scop);
      pipe.replay(kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected)
          << "workers " << workers << " run " << run;
    }
    session.stop();
    EXPECT_EQ(countSpans(session.trace(), "channel.spawn"),
              pipe.numWorkers() > 1 ? 1u : 0u)
        << "workers " << workers;
    const std::vector<trace::SpanInterval> spans =
        trace::matchSpans(session.trace());
    for (const trace::SpanInterval& spawn : spans) {
      if (spawn.begin->name != "channel.spawn")
        continue;
      const bool nested = std::any_of(
          spans.begin(), spans.end(), [&](const trace::SpanInterval& run) {
            return run.begin->name == "channel.run" &&
                   run.begin->tid == spawn.begin->tid &&
                   run.begin->tsNanos <= spawn.begin->tsNanos &&
                   spawn.endNanos <= run.endNanos;
          });
      EXPECT_TRUE(nested) << "channel.spawn must nest in channel.run";
    }
  }
}

TEST(ChannelLifecycleTest, RunAfterAThrowingBodyMatchesTheOracle) {
  // A body that throws aborts the run and rethrows on the caller, on the
  // first run (while the workers have just started) and on a later one;
  // the next run still reproduces the oracle.
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 8);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  auto prog = compileShared(scop, true);
  for (unsigned workers : {1u, 2u, 3u, 4u}) {
    for (bool throwFirst : {true, false}) {
      ChannelOptions options;
      options.numWorkers = workers;
      ChannelPipeline pipe(prog, options);
      if (!throwFirst) {
        testing::InterpretedKernel warm(scop);
        pipe.replay(warm.executor());
        EXPECT_EQ(warm.fingerprint(), expected);
      }
      std::atomic<std::size_t> calls{0}; // bodies run on the stage workers
      EXPECT_THROW(pipe.replay([&](std::size_t, const pb::Tuple&) {
        if (calls.fetch_add(1) == 4)
          throw std::runtime_error("body failed");
      }),
                   std::runtime_error)
          << "workers " << workers;
      testing::InterpretedKernel kernel(scop);
      pipe.replay(kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected)
          << "workers " << workers << (throwFirst ? " first" : " later");
    }
  }
}

// --- Lanes: a source statement's blocks split over worker stages -----------

std::uint64_t reductionOracle(const scop::Scop& scop, std::size_t runs) {
  kernels::ReductionRunner oracle(scop);
  for (std::size_t r = 0; r < runs; ++r)
    executeSequential(scop, oracle.executor());
  return oracle.fingerprint();
}

TEST(ChannelLaneTest, ReductionKernelsMatchTheOracleAtEveryWorkerCount) {
  // Every reduction kernel, optimized or not, at 1-4 workers: one replay
  // and a 50-batch stream with shared state must equal the sequential
  // runs exactly. norm_accumulate's partials run on parallel lanes here,
  // so this is where a lane lapping its combine (or a reader) shows.
  constexpr std::size_t kBatches = 50;
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const scop::Scop scop = spec.build(16);
    const std::uint64_t once = reductionOracle(scop, 1);
    const std::uint64_t streamed = reductionOracle(scop, kBatches);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);
      for (unsigned workers : {1u, 2u, 3u, 4u}) {
        ChannelOptions options;
        options.numWorkers = workers;
        ChannelPipeline pipe(prog, options, &comm);
        kernels::ReductionRunner runner(scop, *prog);
        // Repeat: skew bugs are scheduling-dependent.
        for (int rep = 0; rep < 3; ++rep) {
          runner.reset();
          pipe.replay(runner.executor());
          ASSERT_EQ(runner.fingerprint(), once)
              << spec.name << " opt " << optimized << " workers " << workers
              << " rep " << rep;
          runner.reset();
          pipe.replayBatches(kBatches, [&](std::size_t, std::size_t s,
                                           const pb::Tuple& it) {
            runner.execute(s, it);
          });
          ASSERT_EQ(runner.fingerprint(), streamed)
              << spec.name << " opt " << optimized << " workers " << workers
              << " rep " << rep << " streamed";
        }
      }
    }
  }
}

TEST(ChannelLaneTest, ChainOrderedProgramsKeepOneStagePerStatement) {
  // Table 9 and the matmul chains order every statement's blocks by a
  // chain or feed them from a producer: no statement is a source, so
  // lanes never appear and the stage count is the statement count.
  std::vector<scop::Scop> scops;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    scops.push_back(kernels::buildProgram(spec, 16));
  using V = kernels::MatmulVariant;
  for (std::size_t len : {2u, 3u, 4u})
    for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT})
      scops.push_back(kernels::matmulChain(v, len, 4));
  for (const scop::Scop& scop : scops) {
    auto prog = compileShared(scop, true);
    for (unsigned workers : {0u, 2u, 4u, 8u}) {
      ChannelOptions options;
      options.numWorkers = workers;
      const ChannelPipeline pipe(prog, options);
      EXPECT_EQ(pipe.numStages(), scop.numStatements())
          << scop.name() << " workers " << workers;
    }
  }
}

TEST(ChannelLaneTest, NormAccumulateSplitsIntoOneLanePerWorker) {
  // norm_accumulate's 8 partial blocks read only the input array: the
  // accumulation splits into min(8, workers) lanes next to the consumer's
  // one stage, and the channel.lanes counter reports the added stages.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (pb::Value n : {8, 48}) {
    const scop::Scop scop = kernels::normAccumulate(n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, true);
    for (unsigned workers : {0u, 1u, 2u, 3u, 4u, 8u, 12u}) {
      const std::size_t lanes = std::min(8u, workers == 0 ? hw : workers);
      trace::Session session;
      session.start();
      ChannelOptions options;
      options.numWorkers = workers;
      const ChannelPipeline pipe(prog, options, &comm);
      session.stop();
      EXPECT_EQ(pipe.numStages(), 1 + lanes) << "N " << n << " w " << workers;
      std::vector<std::size_t> stmtOf(lanes, 0);
      stmtOf.push_back(1);
      EXPECT_EQ(pipe.stmtOfStage(), stmtOf) << "N " << n << " w " << workers;
      std::vector<double> added;
      for (const trace::TraceEvent& e : session.trace().events)
        if (e.kind == trace::EventKind::Counter && e.name == "channel.lanes")
          added.push_back(e.value);
      EXPECT_EQ(added, std::vector<double>{static_cast<double>(lanes - 1)});
    }
  }
}

/// A write-only statement filling A, then a serial sweep sampling one
/// column of it: under relaxSameNestOrdering fill's blocks are mutually
/// independent and fed by nothing, yet it owns no combine.
scop::Scop fillThenSample(pb::Value n) {
  scop::ScopBuilder b("fill_sample");
  const std::size_t A = b.array("A", {n, n});
  const std::size_t B = b.array("B", {n});
  {
    auto S = b.statement("fill", 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(A, {S.dim(0), S.dim(1)});
  }
  {
    auto S = b.statement("sample", 1);
    S.bound(0, 1, n);
    S.write(B, {S.dim(0)});
    S.read(A, {S.dim(0), S.constant(0)});
    S.read(B, {S.dim(0) - 1});
  }
  return b.build();
}

TEST(ChannelLaneTest, BlocksWithoutACombineStayOnOneStage) {
  // relaxSameNestOrdering frees the blocks of a producer-less statement
  // from their chain, but without a combine nothing in a batch ties such
  // blocks to each other, so a reader could lap a lane it does not read
  // and overflow its ack ring: the statement stays one stage. Streaming
  // 50 batches with shared state must still equal back-to-back
  // sequential runs, on Table 9 and on a program whose first statement
  // has exactly such free blocks.
  constexpr std::size_t kBatches = 50;
  pipeline::DetectOptions relaxed;
  relaxed.relaxSameNestOrdering = true;
  std::size_t freeStatements = 0;
  const auto check = [&](const scop::Scop& scop, std::uint64_t expected,
                         const std::function<void()>& reset,
                         const BatchStatementExecutor& exec,
                         const std::function<std::uint64_t()>& fingerprint) {
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(
        scop, pipeline::detectPipeline(scop, relaxed));
    for (bool optimized : {false, true}) {
      auto prog = std::make_shared<codegen::TaskProgram>(
          codegen::compilePipeline(scop, relaxed));
      if (optimized)
        opt::optimize(*prog);
      // The statements a rule without the combine would split: at least
      // 2 Block tasks, none with an in-dependency.
      std::vector<std::size_t> blocks(scop.numStatements(), 0);
      std::vector<bool> fed(scop.numStatements(), false);
      for (const codegen::Task& t : prog->tasks) {
        ++blocks[t.stmtIdx];
        fed[t.stmtIdx] = fed[t.stmtIdx] || !t.in.empty();
      }
      for (std::size_t s = 0; s < blocks.size(); ++s)
        freeStatements += blocks[s] >= 2 && !fed[s] ? 1u : 0u;
      for (unsigned workers : {2u, 3u, 4u}) {
        ChannelOptions options;
        options.numWorkers = workers;
        ChannelPipeline pipe(prog, options, &comm);
        EXPECT_EQ(pipe.numStages(), scop.numStatements())
            << scop.name() << " opt " << optimized << " workers " << workers;
        reset();
        pipe.replayBatches(kBatches, exec);
        ASSERT_EQ(fingerprint(), expected)
            << scop.name() << " opt " << optimized << " workers " << workers;
      }
    }
  };
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    kernels::SuiteRunner runner(spec, scop, 1);
    for (std::size_t b = 0; b < kBatches; ++b)
      executeSequential(scop, runner.executor());
    check(
        scop, runner.fingerprint(), [&] { runner.reset(); },
        [&](std::size_t, std::size_t s, const pb::Tuple& it) {
          runner.execute(s, it);
        },
        [&] { return runner.fingerprint(); });
  }
  const scop::Scop scop = fillThenSample(16);
  testing::InterpretedKernel kernel(scop);
  for (std::size_t b = 0; b < kBatches; ++b)
    executeSequential(scop, kernel.executor());
  check(
      scop, kernel.fingerprint(), [&] { kernel.reset(); },
      [&](std::size_t, std::size_t s, const pb::Tuple& it) {
        kernel.execute(s, it);
      },
      [&] { return kernel.fingerprint(); });
  EXPECT_GT(freeStatements, 0u);
}

TEST(ChannelLaneTest, SimulatorStagesMatchTheEngineOnEveryKernel) {
  // One stage layout for the engine and the channel simulator, on both
  // simulator overloads: placement-free at the engine's worker count
  // (0 = hardware concurrency on both), and under the engine's own
  // placement.
  std::vector<scop::Scop> scops;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    scops.push_back(kernels::buildProgram(spec, 8));
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels())
    scops.push_back(spec.build(8));
  for (const scop::Scop& scop : scops) {
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    auto prog = compileShared(scop, true);
    sim::CostModel model;
    model.iterationCost.assign(scop.numStatements(), 1e-6);
    for (unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
      ChannelOptions options;
      options.numWorkers = workers;
      const ChannelPipeline pipe(prog, options, &comm);
      EXPECT_EQ(sim::simulateChannels(*prog, comm, model, workers).numStages,
                pipe.numStages())
          << scop.name() << " workers " << workers;
      EXPECT_EQ(sim::simulateChannels(*prog, comm, model, pipe.placement())
                    .numStages,
                pipe.numStages())
          << scop.name() << " workers " << workers;
    }
  }
}

TEST(ChannelLaneTest, OptimizerOutputIsUnchangedOnTheBenchmarkPrograms) {
  // Lanes live in the stage layout only: opt::optimize must return the
  // same program, byte for byte, as before lanes existed. The FNV-1a
  // hashes of toString() were recorded from the one-stage-per-statement
  // layout, over every program the end-to-end benchmark compiles.
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text)
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
  };
  const std::map<std::string, std::uint64_t> expected = {
      {"P1@8", 0x1c96b54183ab1db9ull},
      {"P2@8", 0x15233dcec24807fdull},
      {"P3@8", 0x344c40dcbcb8c9d0ull},
      {"P4@8", 0xe52921e3a3791392ull},
      {"P5@8", 0xb8eaaad4d2b876a4ull},
      {"P6@8", 0xd6cae4e20bc9c326ull},
      {"P7@8", 0x69951e72653ea439ull},
      {"P8@8", 0xfe95f1c06a12e0ccull},
      {"P9@8", 0xe474db5f1a6a1a92ull},
      {"P10@8", 0xd6cae4e20bc9c326ull},
      {"P1@16", 0xdc7dd7968d88eca9ull},
      {"P2@16", 0xb7e98777642c454dull},
      {"P3@16", 0xfed5f53741b4c8e2ull},
      {"P4@16", 0xeb9900d5df00d315ull},
      {"P5@16", 0xa7341fbf2d7abffbull},
      {"P6@16", 0x9e7624bd7991b2f4ull},
      {"P7@16", 0xfffe37d60db3bb0eull},
      {"P8@16", 0xfc13e19a487724f1ull},
      {"P9@16", 0x55f16f680f2dcd33ull},
      {"P10@16", 0x9e7624bd7991b2f4ull},
      {"P1@48", 0x79a8e64028c1f749ull},
      {"P2@48", 0x403cd73e95a3bf42ull},
      {"P3@48", 0xaf27d672c00f51baull},
      {"P4@48", 0xde9cca1596e514f0ull},
      {"P5@48", 0x407d27b39d0b4eafull},
      {"P6@48", 0xe288ebd9843cadd3ull},
      {"P7@48", 0x9dc0d58a665a16f7ull},
      {"P8@48", 0x1cd9abd7a56ee26full},
      {"P9@48", 0x354d4c218aba3512ull},
      {"P10@48", 0xe288ebd9843cadd3ull},
      {"nmm2@4", 0xe9a5ec5aa24dd4d6ull},
      {"nmmt2@4", 0xe9a5ec5aa24dd4d6ull},
      {"gnmm2@4", 0x7ca73990ea8dc783ull},
      {"gnmmt2@4", 0x7ca73990ea8dc783ull},
      {"nmm3@4", 0x996775f475e3afe6ull},
      {"nmmt3@4", 0x996775f475e3afe6ull},
      {"gnmm3@4", 0x42cbacd8b231126aull},
      {"gnmmt3@4", 0x42cbacd8b231126aull},
      {"nmm4@4", 0x10e4f58bb4a6ec76ull},
      {"nmmt4@4", 0x10e4f58bb4a6ec76ull},
      {"gnmm4@4", 0x34d82f6851f3e6a0ull},
      {"gnmmt4@4", 0x34d82f6851f3e6a0ull},
      {"nmm2@16", 0xcd249a16984efddfull},
      {"nmmt2@16", 0xcd249a16984efddfull},
      {"gnmm2@16", 0x67de95eaf20df85full},
      {"gnmmt2@16", 0x67de95eaf20df85full},
      {"nmm3@16", 0x8a8e4ca854681df6ull},
      {"nmmt3@16", 0x8a8e4ca854681df6ull},
      {"gnmm3@16", 0x5e4848c4aad95369ull},
      {"gnmmt3@16", 0x5e4848c4aad95369ull},
      {"nmm4@16", 0x59ff9479fc1de205ull},
      {"nmmt4@16", 0x59ff9479fc1de205ull},
      {"gnmm4@16", 0xdf19b0e43d3f3676ull},
      {"gnmmt4@16", 0xdf19b0e43d3f3676ull},
      {"dot_product_chain@8", 0xcb3695630e4549e6ull},
      {"histogram@8", 0x8d116772b828ddf3ull},
      {"stencil_accumulate@8", 0x007057a1e2927d4bull},
      {"norm_accumulate@8", 0x74df0956b700078aull},
      {"dot_product_chain@48", 0x080dd3dda3b81f0full},
      {"histogram@48", 0xca701c9f8cfec14aull},
      {"stencil_accumulate@48", 0x3f6fbfccc5486128ull},
      {"norm_accumulate@48", 0xe1429da38ec469d3ull},
  };
  std::vector<std::pair<std::string, std::function<scop::Scop()>>> programs;
  for (pb::Value n : {8, 16, 48})
    for (const kernels::ProgramSpec& spec : kernels::table9Programs())
      programs.emplace_back(spec.name + "@" + std::to_string(n), [&spec, n] {
        return frontend::parseProgram(kernels::renderProgramSource(spec, n));
      });
  using V = kernels::MatmulVariant;
  for (pb::Value n : {4, 16})
    for (std::size_t len : {2u, 3u, 4u})
      for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT})
        programs.emplace_back(
            kernels::variantName(v) + std::to_string(len) + "@" +
                std::to_string(n),
            [v, len, n] { return kernels::matmulChain(v, len, n); });
  for (pb::Value n : {8, 48})
    for (const kernels::ReductionKernelSpec& spec :
         kernels::reductionKernels())
      programs.emplace_back(spec.name + "@" + std::to_string(n),
                            [&spec, n] { return spec.build(n); });
  ASSERT_EQ(programs.size(), expected.size());

  for (const auto& [name, build] : programs) {
    const scop::Scop scop = build();
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    EXPECT_EQ(fnv1a(prog.toString()), expected.at(name)) << name;
  }
}

} // namespace
} // namespace pipoly::tasking
