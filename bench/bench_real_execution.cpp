// Real (non-simulated) end-to-end execution: runs the pipelined task
// programs with the actual compute kernel through the OpenMP backend and
// reports measured wall-clock speedup over the real sequential run.
//
// The measured speedup is bounded by the host's core count (~1x on one
// CPU); on a host with as many cores as workers this binary reproduces
// the paper's Fig. 10 setup directly, with no simulation involved. The
// simulated expectation is printed next to the measurement for
// comparison.
//
// `--smoke` runs a fast correctness gate instead (used by CI): every
// Table-9 program executes sequentially, pipelined, and pipelined after
// the task-graph optimizer (through the interned-slot executor), and the
// three result fingerprints must agree. Exits non-zero on any mismatch.
//
// `--replay` runs experiment E19 instead: per Table-9 program, compare
// rebuild-per-batch (compile + optimize + slot table + executeTaskProgram
// for every batch) against compile-once + CompiledPipeline::replay per
// batch. With `--smoke` it doubles as the CI gate: every fingerprint must
// match the sequential run and the amortized per-batch replay cost must
// be at least 5x cheaper than rebuild-per-batch (exit non-zero otherwise).
//
// `--channel` runs the channel-route comparison: per Table-9 program,
// compile-once replay through the task-depend route vs. the channel
// engine (bounded SPSC rings between stage workers), with the real
// compute kernel so per-block work dominates. With `--smoke` it is the
// CI gate: every channel fingerprint must match the sequential run, and
// on programs whose optimized graph is a single linear chain the channel
// route must be no slower than 1.25x the task-depend replay (linear
// chains are the route's worst case — no cross-stage overlap to win, all
// token traffic to lose).
//
// `--reduction` runs the reduction kernel grid (experiment E21): the
// sequential oracle, the legacy serialized route (reductionMode=off) and
// the partial-reduction route (privatized partial accumulators plus one
// combine task) on the pool and on the channel engine must all produce
// the same exact integer fingerprint, with compile-once replay
// throughput reported per kernel. With
// `--smoke` it is the CI gate: any mismatch exits non-zero.
//
// `--json=FILE` writes the measurements of any mode as machine-readable
// JSON (BENCH_real_execution.json), in the bench_detect --json schema.
//
// `--trace=FILE` traces the run (compile spans, per-task worker spans,
// pool park/steal events) and writes Chrome Trace Event JSON.

#include "bench_common.hpp"

#include "codegen/task_program.hpp"
#include "kernels/compute.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/reduction_runner.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "sim/calibrate.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "tasking/tracing_layer.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace {

using namespace pipoly;

tasking::ReplayOptions pooledReplay(unsigned threads) {
  tasking::ReplayOptions options;
  options.numThreads = threads;
  return options;
}

/// CI smoke gate: optimized execution must be observationally identical
/// to the unoptimized and sequential runs on every Table-9 program.
int runSmoke(const std::string& jsonPath) {
  const pb::Value n = 10;
  const int size = 1;
  std::printf("== smoke: optimizer preserves kernel results "
              "(N=%lld, SIZE=%d) ==\n",
              static_cast<long long>(n), size);

  // The TracingLayer wrapper is a no-op unless a trace session is active
  // (--trace=FILE), so it stays installed unconditionally.
  auto layer = std::make_unique<tasking::TracingLayer>(
      tasking::makeThreadPoolBackend(
          std::max(2u, std::thread::hardware_concurrency())));
  bench::Table table(
      {"prog", "tasks", "tasks_opt", "edges", "edges_opt", "status"});
  bench::JsonReport json;
  json.meta("mode", bench::JsonReport::str("smoke"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  int failures = 0;

  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, n);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    codegen::TaskProgram optimized = prog;
    const opt::OptimizeStats stats = opt::optimize(optimized);
    optimized.validate(scop);
    const opt::SlotTable slots = opt::buildSlotTable(optimized);

    kernels::SuiteRunner runner(spec, scop, size);
    tasking::executeSequential(scop, runner.executor());
    const std::uint64_t seqFp = runner.fingerprint();

    runner.reset();
    tasking::executeTaskProgram(prog, *layer, runner.executor());
    const std::uint64_t pipeFp = runner.fingerprint();

    runner.reset();
    tasking::executeTaskProgram(optimized, slots, *layer, runner.executor());
    const std::uint64_t optFp = runner.fingerprint();

    const bool ok = pipeFp == seqFp && optFp == seqFp;
    failures += ok ? 0 : 1;
    table.addRow({spec.name, std::to_string(stats.tasksBefore),
                  std::to_string(stats.tasksAfter),
                  std::to_string(stats.edgesBefore),
                  std::to_string(stats.edgesAfter),
                  ok ? "ok"
                     : (pipeFp != seqFp ? "FAIL (pipelined)"
                                        : "FAIL (optimized)")});
    json.beginProgram(spec.name);
    json.field("tasks", bench::JsonReport::num(
                            static_cast<std::uint64_t>(stats.tasksBefore)));
    json.field("tasks_opt", bench::JsonReport::num(static_cast<std::uint64_t>(
                                stats.tasksAfter)));
    json.field("edges", bench::JsonReport::num(
                            static_cast<std::uint64_t>(stats.edgesBefore)));
    json.field("edges_opt", bench::JsonReport::num(static_cast<std::uint64_t>(
                                stats.edgesAfter)));
    json.field("ok", ok ? "true" : "false");
  }
  table.print();
  std::printf("%s\n", failures == 0
                          ? "smoke PASS: optimized == unoptimized == "
                            "sequential on all programs"
                          : "smoke FAIL");
  if (!jsonPath.empty() && !json.write("bench_real_execution", jsonPath))
    return 1;
  return failures == 0 ? 0 : 1;
}

/// Experiment E19: amortized replay vs. rebuild-per-batch. In smoke mode
/// this is a CI gate — fingerprints must match the sequential run and the
/// amortized speedup must clear 5x on every Table-9 program.
int runReplay(bool smoke, const std::string& jsonPath) {
  const pb::Value n = smoke ? 10 : 12;
  const int size = 1;
  const std::size_t batches = smoke ? 20 : 50;
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::printf("== E19: compile-once replay vs rebuild-per-batch "
              "(N=%lld, SIZE=%d, batches=%zu, threads=%u) ==\n",
              static_cast<long long>(n), size, batches, hw);

  bench::Table table({"prog", "rebuild_ms_per_batch", "replay_ms_per_batch",
                      "amortized_speedup", "status"});
  bench::JsonReport json;
  json.meta("mode", bench::JsonReport::str("replay"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("batches", bench::JsonReport::num(batches));
  json.meta("threads", bench::JsonReport::num(std::uint64_t{hw}));
  int failures = 0;

  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, n);

    // Correctness half: replay must be bit-identical to the sequential
    // and rebuild-per-batch runs with the real compute kernel.
    auto layer = tasking::makeThreadPoolBackend(hw);
    kernels::SuiteRunner runner(spec, scop, size);
    tasking::executeSequential(scop, runner.executor());
    const std::uint64_t seqFp = runner.fingerprint();
    bool fingerprintsOk = true;
    {
      codegen::TaskProgram prog = codegen::compilePipeline(scop);
      opt::optimize(prog);
      const opt::SlotTable slots = opt::buildSlotTable(prog);
      runner.reset();
      tasking::executeTaskProgram(prog, slots, *layer, runner.executor());
      fingerprintsOk = fingerprintsOk && runner.fingerprint() == seqFp;
      tasking::CompiledPipeline check(
          std::move(prog), pooledReplay(hw));
      for (int rep = 0; rep < 3; ++rep) {
        runner.reset();
        check.replay(runner.executor());
        fingerprintsOk = fingerprintsOk && runner.fingerprint() == seqFp;
      }
    }

    // Timing half: E19 measures the per-batch *orchestration* cost, so
    // the statement body is a near-free counter — with the real kernel
    // installed both sides are dominated by identical compute and the
    // overhead difference disappears into it.
    std::atomic<std::uint64_t> instances{0};
    const tasking::StatementExecutor counting =
        [&](std::size_t, const pb::Tuple&) {
          instances.fetch_add(1, std::memory_order_relaxed);
        };

    // Rebuild-per-batch: the full compile pipeline runs for every batch,
    // exactly what a caller without CompiledPipeline has to do today.
    Stopwatch rebuildWatch;
    for (std::size_t b = 0; b < batches; ++b) {
      codegen::TaskProgram prog = codegen::compilePipeline(scop);
      opt::optimize(prog);
      const opt::SlotTable slots = opt::buildSlotTable(prog);
      tasking::executeTaskProgram(prog, slots, *layer, counting);
    }
    const double rebuild = rebuildWatch.seconds();
    const std::uint64_t rebuildInstances = instances.exchange(0);

    // Compile once, replay per batch. The one-time compile is charged to
    // the replay side so the reported speedup is honestly amortized.
    Stopwatch replayWatch;
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(prog));
    const opt::SlotTable slots = opt::buildSlotTable(*shared);
    tasking::CompiledPipeline pipe(
        shared, slots, pooledReplay(hw));
    for (std::size_t b = 0; b < batches; ++b)
      pipe.replay(counting);
    const double replay = replayWatch.seconds();
    fingerprintsOk =
        fingerprintsOk && instances.load() == rebuildInstances; // same work

    const double speedup = replay > 0 ? rebuild / replay : 0.0;
    const bool gated = smoke && speedup < 5.0;
    const bool ok = fingerprintsOk && !gated;
    failures += ok ? 0 : 1;
    table.addRow({spec.name,
                  bench::fmt(rebuild * 1e3 / static_cast<double>(batches), 3),
                  bench::fmt(replay * 1e3 / static_cast<double>(batches), 3),
                  bench::fmt(speedup),
                  ok ? "ok"
                     : (!fingerprintsOk ? "FAIL (fingerprint)"
                                        : "FAIL (< 5x)")});
    json.beginProgram(spec.name);
    json.field("rebuild_ms_per_batch",
               bench::JsonReport::num(rebuild * 1e3 /
                                      static_cast<double>(batches)));
    json.field("replay_ms_per_batch",
               bench::JsonReport::num(replay * 1e3 /
                                      static_cast<double>(batches)));
    json.field("amortized_speedup", bench::JsonReport::num(speedup));
    json.field("ok", ok ? "true" : "false");
  }
  table.print();
  if (smoke)
    std::printf("%s\n",
                failures == 0
                    ? "replay smoke PASS: bit-identical and >= 5x cheaper "
                      "amortized on all programs"
                    : "replay smoke FAIL");
  if (!jsonPath.empty() && !json.write("bench_real_execution", jsonPath))
    return 1;
  return failures == 0 ? 0 : 1;
}

/// Reduction kernel grid execution (EXPERIMENTS.md E21): the sequential
/// oracle, the legacy serialized route (reductionMode=off) and the
/// partial-reduction route (auto, privatized partial accumulators plus a
/// combine task) must produce the same exact integer fingerprint, on the
/// pool and on a ChannelPipeline at nproc workers (where a source
/// statement's partials run on lanes); the auto program is additionally
/// replayed through a CompiledPipeline for the per-batch throughput
/// column. With `smoke` this is the CI gate:
/// any fingerprint mismatch exits non-zero.
int runReduction(bool smoke, const std::string& jsonPath) {
  const pb::Value n = smoke ? 16 : 48;
  const int size = smoke ? 0 : 2;
  const std::size_t batches = smoke ? 20 : 100;
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::printf("== E21: partial-reduction execution, reduction kernel grid "
              "(N=%lld, SIZE=%d, batches=%zu, threads=%u) ==\n",
              static_cast<long long>(n), size, batches, hw);

  bench::Table table({"kernel", "seq_ms", "off_ms", "auto_ms", "channel_ms",
                      "channel_stages", "replay_ms_per_batch", "partials",
                      "status"});
  bench::JsonReport json;
  json.meta("mode", bench::JsonReport::str("reduction"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("batches", bench::JsonReport::num(batches));
  json.meta("threads", bench::JsonReport::num(std::uint64_t{hw}));
  int failures = 0;

  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const scop::Scop scop = spec.build(n);
    auto layer = tasking::makeThreadPoolBackend(hw);

    kernels::ReductionRunner oracle(scop, size);
    Stopwatch seqWatch;
    tasking::executeSequential(scop, oracle.executor());
    const double seqSec = seqWatch.seconds();
    const std::uint64_t seqFp = oracle.fingerprint();

    // Legacy route: the reduction statement keeps its self-dependence
    // chain (off still needs the §7 non-injective-write knob).
    pipeline::DetectOptions offOpt;
    offOpt.reductionMode = pipeline::DetectOptions::ReductionMode::Off;
    offOpt.allowNonInjectiveWrites = true;
    codegen::TaskProgram offProg = codegen::compilePipeline(scop, offOpt);
    opt::optimize(offProg);
    offProg.validate(scop);
    kernels::ReductionRunner offRunner(scop, offProg, size);
    Stopwatch offWatch;
    tasking::executeTaskProgram(offProg, *layer, offRunner.executor());
    const double offSec = offWatch.seconds();
    const bool offOk = offRunner.fingerprint() == seqFp;

    // Partial-reduction route: parallel partial blocks + combine task.
    codegen::TaskProgram autoProg = codegen::compilePipeline(scop);
    opt::optimize(autoProg);
    autoProg.validate(scop);
    std::size_t partials = 0;
    for (const codegen::Task& t : autoProg.tasks)
      if (t.kind == codegen::TaskKind::ReductionCombine)
        partials = t.iterations.size();
    kernels::ReductionRunner autoRunner(scop, autoProg, size);
    Stopwatch autoWatch;
    tasking::executeTaskProgram(autoProg, *layer, autoRunner.executor());
    const double autoSec = autoWatch.seconds();
    const bool autoOk = autoRunner.fingerprint() == seqFp;
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(autoProg));

    // The same program on the channel engine.
    tasking::ChannelOptions channelOptions;
    channelOptions.numWorkers = hw;
    tasking::ChannelPipeline channel(shared, channelOptions);
    kernels::ReductionRunner channelRunner(scop, *shared, size);
    Stopwatch channelWatch;
    channel.replay(channelRunner.executor());
    const double channelSec = channelWatch.seconds();
    const bool channelOk = channelRunner.fingerprint() == seqFp;

    // Compile-once replay throughput, with one fingerprint spot check.
    tasking::CompiledPipeline pipe(
        shared, pooledReplay(hw));
    kernels::ReductionRunner replayRunner(scop, *shared, size);
    pipe.replay(replayRunner.executor());
    const bool replayOk = replayRunner.fingerprint() == seqFp;
    const tasking::StatementExecutor counting = [](std::size_t,
                                                   const pb::Tuple&) {};
    Stopwatch replayWatch;
    for (std::size_t b = 0; b < batches; ++b)
      pipe.replay(counting);
    const double replaySec = replayWatch.seconds();

    const bool ok =
        offOk && autoOk && channelOk && replayOk && partials > 1;
    failures += ok ? 0 : 1;
    table.addRow(
        {spec.name, bench::fmt(seqSec * 1e3, 3), bench::fmt(offSec * 1e3, 3),
         bench::fmt(autoSec * 1e3, 3), bench::fmt(channelSec * 1e3, 3),
         std::to_string(channel.numStages()),
         bench::fmt(replaySec * 1e3 / static_cast<double>(batches), 3),
         std::to_string(partials),
         ok ? "ok"
            : (!autoOk      ? "FAIL (auto)"
               : !offOk     ? "FAIL (off)"
               : !channelOk ? "FAIL (channel)"
                            : (!replayOk ? "FAIL (replay)" : "FAIL (blocks)"))});
    json.beginProgram(spec.name);
    json.field("seq_ms", bench::JsonReport::num(seqSec * 1e3));
    json.field("off_ms", bench::JsonReport::num(offSec * 1e3));
    json.field("auto_ms", bench::JsonReport::num(autoSec * 1e3));
    json.field("channel_ms", bench::JsonReport::num(channelSec * 1e3));
    json.field("channel_stages",
               bench::JsonReport::num(
                   static_cast<std::uint64_t>(channel.numStages())));
    json.field("replay_ms_per_batch",
               bench::JsonReport::num(replaySec * 1e3 /
                                      static_cast<double>(batches)));
    json.field("partials",
               bench::JsonReport::num(static_cast<std::uint64_t>(partials)));
    json.field("ok", ok ? "true" : "false");
  }
  table.print();
  std::printf("%s\n", failures == 0
                          ? "reduction PASS: off == auto == channel == "
                            "sequential, exact fingerprints on every kernel"
                          : "reduction FAIL");
  if (!jsonPath.empty() && !json.write("bench_real_execution", jsonPath))
    return 1;
  return failures == 0 ? 0 : 1;
}

/// Channel-route comparison (and CI gate with `smoke`): task-depend
/// replay vs. channel-engine replay with the real compute kernel.
int runChannel(bool smoke, const std::string& jsonPath) {
  const pb::Value n = 10;
  const int size = smoke ? 120 : 300;
  const std::size_t replays = smoke ? 4 : 10;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== channel route vs task-depend replay "
              "(N=%lld, SIZE=%d, replays=%zu, threads=%u) ==\n",
              static_cast<long long>(n), size, replays, hw);

  bench::Table table({"prog", "stages", "comm_bytes", "taskdep_ms",
                      "channel_ms", "ratio", "status"});
  bench::JsonReport json;
  json.meta("mode", bench::JsonReport::str("channel"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("size", bench::JsonReport::num(static_cast<std::uint64_t>(size)));
  json.meta("replays", bench::JsonReport::num(replays));
  json.meta("threads", bench::JsonReport::num(std::uint64_t{hw}));
  int failures = 0;

  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);

    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(prog));
    const opt::SlotTable slots = opt::buildSlotTable(*shared);

    tasking::ReplayOptions taskDepOptions;
    taskDepOptions.numThreads = hw;
    tasking::CompiledPipeline taskDep(shared, slots, taskDepOptions);
    tasking::ChannelOptions channelOptions;
    channelOptions.numWorkers = hw;
    tasking::ChannelPipeline channel(shared, channelOptions, &comm);

    // Correctness: both routes, single replays and a streamed batch run,
    // against the sequential fingerprint.
    kernels::SuiteRunner runner(spec, scop, size);
    tasking::executeSequential(scop, runner.executor());
    const std::uint64_t seqFp = runner.fingerprint();
    runner.reset();
    taskDep.replay(runner.executor());
    bool fingerprintsOk = runner.fingerprint() == seqFp;
    runner.reset();
    channel.replay(runner.executor());
    fingerprintsOk = fingerprintsOk && runner.fingerprint() == seqFp;
    runner.reset();
    channel.replayBatches(3, [&](std::size_t, std::size_t s,
                                 const pb::Tuple& it) {
      runner.execute(s, it);
    });
    const std::uint64_t streamedFp = runner.fingerprint();
    runner.reset();
    for (int b = 0; b < 3; ++b)
      taskDep.replay(runner.executor());
    fingerprintsOk = fingerprintsOk && streamedFp == runner.fingerprint();

    // Timing: `replays` full runs per route with the real kernel.
    runner.reset();
    Stopwatch taskDepWatch;
    for (std::size_t r = 0; r < replays; ++r)
      taskDep.replay(runner.executor());
    const double taskDepTime = taskDepWatch.seconds();
    runner.reset();
    Stopwatch channelWatch;
    for (std::size_t r = 0; r < replays; ++r)
      channel.replay(runner.executor());
    const double channelTime = channelWatch.seconds();

    const double ratio = taskDepTime > 0 ? channelTime / taskDepTime : 0.0;
    // Gate only linear chains: the route's worst case, and the shape the
    // no-regression promise is about. A small absolute allowance keeps
    // sub-millisecond programs out of timer-noise territory.
    const bool gated = smoke && taskDep.linear() &&
                       channelTime > 1.25 * taskDepTime + 2e-3;
    const bool ok = fingerprintsOk && !gated;
    failures += ok ? 0 : 1;
    table.addRow({spec.name, std::to_string(channel.program().numStatements),
                  std::to_string(comm.totalBytes()),
                  bench::fmt(taskDepTime * 1e3 / static_cast<double>(replays), 3),
                  bench::fmt(channelTime * 1e3 / static_cast<double>(replays), 3),
                  bench::fmt(ratio),
                  ok ? (taskDep.linear() ? "ok (linear, gated)" : "ok")
                     : (!fingerprintsOk ? "FAIL (fingerprint)"
                                        : "FAIL (> 1.25x)")});
    json.beginProgram(spec.name);
    json.field("linear", taskDep.linear() ? "true" : "false");
    json.field("comm_bytes", bench::JsonReport::num(comm.totalBytes()));
    json.field("taskdep_ms_per_replay",
               bench::JsonReport::num(taskDepTime * 1e3 / static_cast<double>(replays)));
    json.field("channel_ms_per_replay",
               bench::JsonReport::num(channelTime * 1e3 / static_cast<double>(replays)));
    json.field("ratio", bench::JsonReport::num(ratio));
    json.field("ok", ok ? "true" : "false");
  }
  table.print();
  if (smoke)
    std::printf("%s\n",
                failures == 0
                    ? "channel smoke PASS: bit-identical fingerprints, no "
                      "regression on linear chains"
                    : "channel smoke FAIL");
  if (!jsonPath.empty() && !json.write("bench_real_execution", jsonPath))
    return 1;
  return failures == 0 ? 0 : 1;
}

/// Stops `session` and writes its trace to `path` (no-op on empty path).
int dumpTrace(trace::Session& session, const std::string& path) {
  if (path.empty())
    return 0;
  session.stop();
  std::ofstream out(path);
  if (!out.good()) {
    std::printf("bench_real_execution: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << trace::toChromeJson(session.trace());
  std::printf("bench_real_execution: wrote trace to '%s'\n", path.c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool replay = false;
  bool channel = false;
  bool reduction = false;
  std::string tracePath, jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--replay") == 0)
      replay = true;
    else if (std::strcmp(argv[i], "--channel") == 0)
      channel = true;
    else if (std::strcmp(argv[i], "--reduction") == 0)
      reduction = true;
    else if (std::strncmp(argv[i], "--trace=", 8) == 0)
      tracePath = argv[i] + 8;
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      jsonPath = argv[i] + 7;
  }

  trace::Session session;
  if (!tracePath.empty()) {
    trace::setThreadName("main");
    session.start();
  }

  if (reduction) {
    const int rc = runReduction(smoke, jsonPath);
    const int traceRc = dumpTrace(session, tracePath);
    return rc != 0 ? rc : traceRc;
  }

  if (channel) {
    const int rc = runChannel(smoke, jsonPath);
    const int traceRc = dumpTrace(session, tracePath);
    return rc != 0 ? rc : traceRc;
  }

  if (replay) {
    const int rc = runReplay(smoke, jsonPath);
    const int traceRc = dumpTrace(session, tracePath);
    return rc != 0 ? rc : traceRc;
  }

  if (smoke) {
    const int rc = runSmoke(jsonPath);
    const int traceRc = dumpTrace(session, tracePath);
    return rc != 0 ? rc : traceRc;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== Real execution: pipelined vs sequential wall-clock ==\n");
  std::printf("host hardware threads: %u%s\n\n", hw,
              hw == 1 ? "  (expect ~1x measured speedup; see the simulated "
                        "column for the multi-core expectation)"
                      : "");

  bench::Table table({"prog", "seq_ms", "pipelined_ms", "optimized_ms",
                      "measured_speedup", "simulated_speedup(8w)"});
  bench::JsonReport json;
  json.meta("mode", bench::JsonReport::str("real"));
  json.meta("threads", bench::JsonReport::num(std::uint64_t{hw}));

  const int size = 2;
  for (const char* name : {"P1", "P3", "P5"}) {
    const kernels::ProgramSpec& spec = kernels::programByName(name);
    scop::Scop scop = kernels::buildProgram(spec, 12);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    codegen::TaskProgram optimized = prog;
    opt::optimize(optimized);
    const opt::SlotTable slots = opt::buildSlotTable(optimized);

    kernels::SuiteRunner runner(spec, scop, size);

    Stopwatch seqWatch;
    tasking::executeSequential(scop, runner.executor());
    const double seq = seqWatch.seconds();

    runner.reset();
    std::unique_ptr<tasking::TaskingLayer> inner = tasking::makeOpenMPBackend();
    if (!inner)
      inner = tasking::makeThreadPoolBackend(hw);
    auto layer = std::make_unique<tasking::TracingLayer>(std::move(inner));
    Stopwatch pipeWatch;
    tasking::executeTaskProgram(prog, *layer, runner.executor());
    const double pipe = pipeWatch.seconds();

    runner.reset();
    Stopwatch optWatch;
    tasking::executeTaskProgram(optimized, slots, *layer, runner.executor());
    const double optTime = optWatch.seconds();

    // Simulated expectation on the paper's 8 hardware threads, with a
    // cost model calibrated from the same runner.
    runner.reset();
    sim::CostModel model = sim::calibrate(scop, runner.executor());
    model.taskOverhead = bench::measureTaskOverhead();
    sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});

    table.addRow({name, bench::fmt(seq * 1e3, 2), bench::fmt(pipe * 1e3, 2),
                  bench::fmt(optTime * 1e3, 2), bench::fmt(seq / pipe),
                  bench::fmt(r.speedupOver(sim::sequentialTime(scop, model)))});
    json.beginProgram(name);
    json.field("seq_ms", bench::JsonReport::num(seq * 1e3));
    json.field("pipelined_ms", bench::JsonReport::num(pipe * 1e3));
    json.field("optimized_ms", bench::JsonReport::num(optTime * 1e3));
    json.field("measured_speedup", bench::JsonReport::num(seq / pipe));
  }
  table.print();
  if (!jsonPath.empty() && !json.write("bench_real_execution", jsonPath))
    return 1;
  return dumpTrace(session, tracePath);
}
