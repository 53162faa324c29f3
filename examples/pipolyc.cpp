// pipolyc — the command-line driver: parses a loop-nest program (the
// mini-C dialect of src/frontend), runs the full pipeline-detection stack
// and prints whichever artifacts are requested.
//
// Usage:
//   pipolyc [options] [file]        (no file: a built-in Listing-1 demo)
//     --maps        print the pipeline maps (T_{S,T})
//     --tree        print the schedule tree (Algorithm 2)
//     --ast         print the Fig.-6-style AST
//     --annotated   print OpenMP-annotated pseudo-source (task pragmas)
//     --tasks       print the task program
//     --dot         print the task graph in Graphviz format
//     --json        print the task program as JSON
//     --optimize    run the task-graph optimizer (transitive reduction +
//                   chain fusion) before printing/simulating; --dot and
//                   --json then carry pre/post edge and task counts
//     --report      print the human-readable pipeline report
//     --emit-c      print a self-contained OpenMP C program
//     --simulate N  print the simulated speedup on N workers
//     --timeline N  print a Fig.-2-style execution timeline on N workers
//     --param X=V   override a declared parameter (repeatable)
//     --verify      execute the task program with interpreted bodies on
//                   the --backend (thread-pool by default) three times and
//                   check against sequential; a program with reduction
//                   combine tasks runs exact reduction payloads instead
//                   (kernels::ReductionRunner), here and under --replay
//                   and --trace
//     --replay=N    compile the program once into a CompiledPipeline (a
//                   ChannelPipeline under --backend=channel) and
//                   replay it N times with interpreted bodies, checking
//                   every run against the sequential fingerprint; prints
//                   total/per-replay timing, the executor stats and the
//                   route the calibrated default chose (in-order or pool)
//                   with its two per-run predictions
//     --tune N      sweep task-granularity factors on N simulated workers
//                   and report the best (the §7 granularity question)
//     --trace=FILE  trace the whole run (compile-phase spans, a real
//                   4-worker execution with per-task spans, and the
//                   simulator's predicted timeline as its own track) and
//                   write Chrome Trace Event JSON — open in
//                   chrome://tracing or https://ui.perfetto.dev
//     --metrics     print aggregated span/counter metrics as JSON
//     --reduction=off|auto  off disables the reduction-aware route (the
//                   bit-identical legacy behaviour); auto (the default)
//                   relaxes classified `A[f] += g(...)` accumulations into
//                   parallel partial blocks plus a combine task; the
//                   detection route counters (closed-form parametric
//                   pairs, per-pair fallbacks) print on stderr
//     --backend=serial|threadpool|openmp|channel  execution backend for
//                   --verify and --replay. `channel` runs the communication
//                   analysis and routes execution through the bounded-SPSC
//                   channel engine, printing each statement's stage count
//                   (a source statement splits into per-worker lanes) and
//                   the stage placement (workers, max load, cross-worker
//                   bytes); --report/--json/--dot then carry the per-edge
//                   volumes and sized channel capacities
//
// Example:
//   ./build/examples/pipolyc --maps --ast --simulate 8

#include "ast/ast.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/dot_export.hpp"
#include "codegen/json_export.hpp"
#include "codegen/task_program.hpp"
#include "frontend/frontend.hpp"
#include "kernels/reduction_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/report.hpp"
#include "schedule/build.hpp"
#include "sim/granularity_tuner.hpp"
#include "sim/simulator.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "tasking/tracing_layer.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/oracle.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <variant>

using namespace pipoly;

namespace {

constexpr const char* kDemoProgram = R"(
// Built-in demo: the paper's Listing 1.
param N = 20;
array A[N][N];
array B[N][N];
for (i = 0; i < N - 1; i++)
  for (j = 0; j < N - 1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < N/2 - 1; i++)
  for (j = 0; j < N/2 - 1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
)";

int usage() {
  std::fprintf(stderr,
               "usage: pipolyc [--maps] [--tree] [--ast] [--tasks] [--dot] "
               "[--optimize] [--emit-c] [--simulate N] [--timeline N] "
               "[--replay=N] [--trace=FILE] [--metrics] "
               "[--reduction=off|auto] "
               "[--backend=serial|threadpool|openmp|channel] [file]\n");
  return 2;
}

/// The replay route line: the route the pipeline's latest call took and
/// why; for the calibrated default, the two per-run predictions it
/// compared.
std::string routeLine(const tasking::CompiledPipeline& pipe) {
  const tasking::CompiledPipeline::Stats& st = pipe.stats();
  const char* route =
      st.route == tasking::ReplayRoute::Pool ? "pool" : "in-order";
  const char* why = "no call";
  switch (st.reason) {
  case tasking::RouteReason::None: break;
  case tasking::RouteReason::LinearChain: why = "linear chain"; break;
  case tasking::RouteReason::OneWorker: why = "one worker"; break;
  case tasking::RouteReason::FewTasks: why = "at most one task"; break;
  case tasking::RouteReason::Explicit: why = "explicit thread count"; break;
  case tasking::RouteReason::Calibrated: {
    const tasking::ReplayChoice& c = st.choice;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "route: %s (predicted per run: in-order %.3f ms, pool "
                  "%.3f ms = orchestration %.3f ms + simulated %.3f ms on %u "
                  "workers; calibration %.3f ms)",
                  route, c.inOrder * 1e3, c.pool * 1e3,
                  st.price.orchestration * 1e3, st.price.makespan * 1e3,
                  st.price.workers, st.calibrationSeconds * 1e3);
    return buf;
  }
  }
  return std::string("route: ") + route + " (" + why + ")";
}

/// The statement bodies --verify, --replay and --trace execute: the
/// interpreted oracle, or for a program with reduction combine tasks
/// ReductionRunner's exact partial accumulators (interpreted bodies
/// cannot fold partials). Executors point into the payload, so it stays
/// where it was built.
struct Payload {
  std::variant<verify::InterpretedKernel, kernels::ReductionRunner> kernel;

  /// `program` null = the sequential oracle.
  Payload(const scop::Scop& scop, const codegen::TaskProgram* program,
          bool reductions)
      : kernel(std::in_place_type<verify::InterpretedKernel>, scop) {
    if (reductions && program != nullptr)
      kernel.emplace<kernels::ReductionRunner>(scop, *program);
    else if (reductions)
      kernel.emplace<kernels::ReductionRunner>(scop);
  }
  void reset() {
    std::visit([](auto& k) { k.reset(); }, kernel);
  }
  tasking::StatementExecutor executor() {
    return std::visit([](auto& k) { return k.executor(); }, kernel);
  }
  std::uint64_t fingerprint() const {
    return std::visit([](const auto& k) { return k.fingerprint(); }, kernel);
  }
};

std::uint64_t sequentialFingerprint(const scop::Scop& scop,
                                    bool reductions) {
  Payload oracle(scop, nullptr, reductions);
  tasking::executeSequential(scop, oracle.executor());
  return oracle.fingerprint();
}

/// Per statement, the channel stages it runs on: "S: 4 lanes" for a
/// source statement split over workers, "T: 1 stage" otherwise.
std::string channelStagesText(const tasking::ChannelPipeline& pipe,
                              const scop::Scop& scop) {
  const std::vector<std::size_t>& stmtOf = pipe.stmtOfStage();
  std::string out;
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const auto stages = std::count(stmtOf.begin(), stmtOf.end(), s);
    if (stages == 0)
      continue;
    out += scop.statement(s).name() + ": " + std::to_string(stages) +
           (stages > 1 ? " lanes\n" : " stage\n");
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  bool maps = false, tree = false, astOut = false, annotated = false,
       tasks = false, dot = false, json = false, report = false,
       emitC = false, verifyRun = false, optimizeRun = false;
  bool metricsOut = false;
  pipeline::DetectOptions detectOptions;
  bool routeStats = false;
  unsigned simulateWorkers = 0, timelineWorkers = 0, tuneWorkers = 0;
  std::size_t replayRuns = 0;
  std::string path, tracePath;
  std::string backendName = "threadpool";
  frontend::ParamOverrides params;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--maps")
      maps = true;
    else if (arg == "--tree")
      tree = true;
    else if (arg == "--ast")
      astOut = true;
    else if (arg == "--annotated")
      annotated = true;
    else if (arg == "--tasks")
      tasks = true;
    else if (arg == "--dot")
      dot = true;
    else if (arg == "--json")
      json = true;
    else if (arg == "--report")
      report = true;
    else if (arg == "--verify")
      verifyRun = true;
    else if (arg == "--optimize")
      optimizeRun = true;
    else if (arg == "--emit-c")
      emitC = true;
    else if (arg == "--metrics")
      metricsOut = true;
    else if (arg.rfind("--reduction=", 0) == 0) {
      const std::string mode = arg.substr(12);
      if (mode == "off")
        detectOptions.reductionMode =
            pipeline::DetectOptions::ReductionMode::Off;
      else if (mode == "auto")
        detectOptions.reductionMode =
            pipeline::DetectOptions::ReductionMode::Auto;
      else
        return usage();
      routeStats = true;
    }
    else if (arg.rfind("--backend=", 0) == 0) {
      backendName = arg.substr(10);
      if (backendName != "serial" && backendName != "threadpool" &&
          backendName != "openmp" && backendName != "channel")
        return usage();
    }
    else if (arg.rfind("--replay=", 0) == 0) {
      const long long runs = std::atoll(arg.c_str() + 9);
      if (runs <= 0)
        return usage();
      replayRuns = static_cast<std::size_t>(runs);
    }
    else if (arg.rfind("--trace=", 0) == 0) {
      tracePath = arg.substr(8);
      if (tracePath.empty())
        return usage();
    }
    else if (arg == "--param" && i + 1 < argc) {
      const std::string binding = argv[++i];
      const std::size_t eq = binding.find('=');
      if (eq == std::string::npos || eq == 0)
        return usage();
      params[binding.substr(0, eq)] = std::atoll(binding.c_str() + eq + 1);
    } else if ((arg == "--simulate" || arg == "--timeline" ||
                arg == "--tune") &&
               i + 1 < argc) {
      unsigned workers = static_cast<unsigned>(std::atoi(argv[++i]));
      if (workers == 0)
        return usage();
      (arg == "--simulate"   ? simulateWorkers
       : arg == "--timeline" ? timelineWorkers
                             : tuneWorkers) = workers;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (!maps && !tree && !astOut && !annotated && !tasks && !dot && !json &&
      !report && !emitC && !verifyRun && !optimizeRun && !metricsOut &&
      tracePath.empty() && simulateWorkers == 0 && timelineWorkers == 0 &&
      tuneWorkers == 0 && replayRuns == 0)
    maps = astOut = true; // sensible default

  std::string source = kDemoProgram;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in.good()) {
      std::fprintf(stderr, "pipolyc: cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  const bool tracing = !tracePath.empty() || metricsOut;
  trace::Session session;

  try {
    if (tracing) {
      trace::setThreadName("main");
      session.start();
    }

    trace::beginSpan("compile");
    scop::Scop scop = frontend::parseProgram(source, params);
    // `A[f] += g(...)` writes are non-injective by design; with the
    // reduction route off they must still compile (serially, through the
    // explicit-dependence fallback) rather than trip the injectivity
    // check. Scoped to declared accumulations so every legacy input keeps
    // its exact behaviour.
    if (detectOptions.reductionMode == pipeline::DetectOptions::ReductionMode::Off)
      for (std::size_t s = 0; s < scop.numStatements(); ++s)
        if (scop.statement(s).reductionOp() != scop::ReductionOp::None)
          detectOptions.allowNonInjectiveWrites = true;
    const pipeline::PipelineInfo info =
        pipeline::detectPipeline(scop, detectOptions);
    if (routeStats)
      std::fprintf(stderr,
                   "pipolyc: detect routes — %zu candidate pair(s): "
                   "%zu parametric, %zu symbolic, %zu explicit, "
                   "%zu independent, %zu reduction, %zu fallback(s); "
                   "%zu relaxed reduction statement(s)\n",
                   info.stats.candidatePairs, info.stats.parametricPairs,
                   info.stats.symbolicPairs, info.stats.explicitPairs,
                   info.stats.independentPairs, info.stats.reductionPairs,
                   info.stats.fallbackPairs(),
                   info.stats.reductionStatements);
    std::unique_ptr<sched::ScheduleNode> schedTree;
    {
      trace::Span span("compile.schedule");
      schedTree = sched::buildPipelineSchedule(scop, info);
    }
    ast::Ast lowered;
    {
      trace::Span span("compile.ast");
      lowered = ast::buildAst(scop, *schedTree);
    }
    codegen::TaskProgram prog = codegen::lowerToTasks(scop, lowered);
    prog.validate(scop);

    // Programs with reduction combine tasks execute on ReductionRunner
    // payloads (see Payload).
    const bool hasCombine =
        std::any_of(prog.tasks.begin(), prog.tasks.end(),
                    [](const codegen::Task& t) {
                      return t.kind == codegen::TaskKind::ReductionCombine;
                    });

    // The channel backend sizes its rings from the communication
    // analysis; the exports and the report then carry the per-edge
    // volumes and capacities too.
    std::optional<pipeline::CommInfo> comm;
    if (backendName == "channel")
      comm = pipeline::analyzeCommunication(scop, info);
    const pipeline::CommInfo* commPtr = comm ? &*comm : nullptr;

    std::optional<codegen::ProgramCounts> preOptCounts;
    if (optimizeRun) {
      preOptCounts = prog.counts();
      const opt::OptimizeStats stats = opt::optimize(prog);
      prog.validate(scop);
      // stderr: --dot/--json/--emit-c pipe stdout into other tools.
      std::fprintf(stderr, "== optimizer ==\n%s\n\n",
                   stats.toString().c_str());
    }
    trace::endSpan("compile");

    if (maps) {
      std::printf("== pipeline maps ==\n");
      for (const auto& entry : info.maps)
        std::printf("%s -> %s: %zu pairs, e.g. %s%s -> %s%s\n",
                    scop.statement(entry.srcIdx).name().c_str(),
                    scop.statement(entry.tgtIdx).name().c_str(),
                    entry.map.size(),
                    scop.statement(entry.srcIdx).name().c_str(),
                    entry.map.pairs().front().first.toString().c_str(),
                    scop.statement(entry.tgtIdx).name().c_str(),
                    entry.map.pairs().front().second.toString().c_str());
      if (info.maps.empty())
        std::printf("(none)\n");
      std::printf("\n");
    }
    if (tree)
      std::printf("== schedule tree ==\n%s\n", schedTree->toString().c_str());
    if (astOut)
      std::printf("== AST ==\n%s\n", ast::printAst(lowered, scop).c_str());
    if (annotated)
      std::printf("== annotated source ==\n%s\n",
                  ast::printAnnotatedSource(lowered, scop).c_str());
    if (tasks)
      std::printf("== tasks ==\n%s\n", prog.toString().c_str());
    if (dot)
      std::printf("%s",
                  codegen::toDot(prog, scop, preOptCounts, commPtr).c_str());
    if (json)
      std::printf("%s",
                  codegen::toJson(prog, scop, preOptCounts, commPtr).c_str());
    if (report)
      std::printf("%s\n", pipeline::renderReport(scop, info, commPtr).c_str());
    if (emitC)
      std::printf("%s", codegen::emitOpenMPProgram(scop, prog).c_str());
    // --backend=channel executes through one ChannelPipeline, compiled
    // once (rings sized by the communication analysis) and shared by
    // --verify and --replay.
    std::unique_ptr<tasking::ChannelPipeline> channel;
    if (backendName == "channel" && (verifyRun || replayRuns != 0)) {
      channel = std::make_unique<tasking::ChannelPipeline>(
          prog, tasking::ChannelOptions{}, commPtr);
      const rt::Placement& placed = channel->placement();
      std::printf("== channel stages (%zu on %u workers) ==\n%s"
                  "placement: %u workers, max load %llu, cross-worker "
                  "bytes %llu\n\n",
                  channel->numStages(), channel->numWorkers(),
                  channelStagesText(*channel, scop).c_str(),
                  channel->numWorkers(),
                  static_cast<unsigned long long>(placed.maxLoad),
                  static_cast<unsigned long long>(placed.crossWorkerBytes));
    }

    if (verifyRun) {
      std::string backend = "channel";
      verify::Execution run = [&](const tasking::StatementExecutor& exec) {
        channel->replay(exec);
      };
      std::unique_ptr<tasking::TaskingLayer> layer;
      if (channel == nullptr) {
        if (backendName == "serial")
          layer = tasking::makeSerialBackend();
        else if (backendName == "openmp")
          layer = tasking::makeOpenMPBackend();
        else
          layer = tasking::makeThreadPoolBackend(4);
        if (layer == nullptr) {
          std::fprintf(stderr, "pipolyc: backend '%s' is not available\n",
                       backendName.c_str());
          return 2;
        }
        backend = layer->name();
        run = [&](const tasking::StatementExecutor& exec) {
          tasking::executeTaskProgram(prog, *layer, exec);
        };
      }
      const std::uint64_t expected = sequentialFingerprint(scop, hasCombine);
      bool ok = true;
      for (int rep = 0; rep < 3 && ok; ++rep) {
        Payload payload(scop, &prog, hasCombine);
        run(payload.executor());
        ok = payload.fingerprint() == expected;
      }
      std::printf("== verify ==\n%s on '%s' backend (3 runs)\n\n",
                  ok ? "PASS: pipelined execution matches sequential"
                     : "FAIL: fingerprint mismatch",
                  backend.c_str());
      if (!ok)
        return 1;
    }

    if (replayRuns) {
      // Compile once into the persistent replay executor (the channel
      // pipeline under --backend=channel), then run the program N times
      // against the sequential payload.
      const std::uint64_t expected = sequentialFingerprint(scop, hasCombine);
      std::unique_ptr<tasking::CompiledPipeline> graph;
      if (channel == nullptr)
        graph = std::make_unique<tasking::CompiledPipeline>(prog);
      Payload kernel(scop, &prog, hasCombine);
      std::size_t mismatches = 0;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < replayRuns; ++r) {
        kernel.reset();
        if (channel != nullptr)
          channel->replay(kernel.executor());
        else
          graph->replay(kernel.executor());
        if (kernel.fingerprint() != expected) ++mismatches;
      }
      const double total =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("== replay (%zu runs, %u threads%s) ==\n%s%s"
                  "%s: %zu/%zu runs matched the sequential fingerprint\n"
                  "total %.3f ms, %.3f ms/replay\n\n",
                  replayRuns,
                  channel != nullptr ? channel->numWorkers()
                                     : graph->numThreads(),
                  channel != nullptr ? ", channel route"
                  : graph->linear()  ? ", linear fast path"
                                     : "",
                  graph != nullptr ? routeLine(*graph).c_str() : "",
                  graph != nullptr ? "\n" : "",
                  mismatches == 0 ? "PASS" : "FAIL", replayRuns - mismatches,
                  replayRuns, total * 1e3,
                  total * 1e3 / static_cast<double>(replayRuns));
      if (mismatches != 0)
        return 1;
    }

    if (simulateWorkers || timelineWorkers) {
      sim::CostModel model;
      model.iterationCost.assign(scop.numStatements(), 50e-6);
      model.taskOverhead = 1e-6;
      const double seq = sim::sequentialTime(scop, model);
      if (simulateWorkers) {
        sim::SimResult r =
            sim::simulate(prog, model, sim::SimConfig{simulateWorkers});
        std::printf("== simulation (%u workers, 50us/iteration) ==\n"
                    "speedup %.2fx, utilization %.0f%%, %zu tasks\n\n",
                    simulateWorkers, r.speedupOver(seq),
                    100.0 * r.utilization(), r.numTasks);
      }
      if (timelineWorkers) {
        sim::SimResult r =
            sim::simulate(prog, model, sim::SimConfig{timelineWorkers});
        std::printf("== timeline (%u workers) ==\n%s\n", timelineWorkers,
                    sim::renderTimeline(r, prog, scop).c_str());
      }
    }
    if (tuneWorkers) {
      sim::CostModel model;
      model.iterationCost.assign(scop.numStatements(), 50e-6);
      model.taskOverhead = 2e-6;
      sim::GranularityChoice choice = sim::chooseGranularity(
          scop, model, sim::SimConfig{tuneWorkers});
      std::printf("== granularity tuning (%u workers) ==\n", tuneWorkers);
      for (const sim::GranularityCandidate& c : choice.sweep)
        std::printf("  coarsening %4zu: %5zu tasks, makespan %.3f ms%s\n",
                    c.coarsening, c.tasks, c.makespan * 1e3,
                    c.coarsening == choice.best.coarsening ? "  <= best"
                                                           : "");
      std::printf("\n");
    }

    if (tracing) {
      // A real 4-worker execution of the payload: per-task spans
      // on the pool workers plus park/unpark/steal events.
      {
        Payload kernel(scop, &prog, hasCombine);
        tasking::TracingLayer layer(tasking::makeThreadPoolBackend(4));
        tasking::executeTaskProgram(prog, layer, kernel.executor());
      }
      session.stop();

      // Metrics summarize only what actually ran; the simulator's
      // predicted timeline is appended afterwards as its own tracks.
      const trace::MetricsSummary metrics =
          trace::summarizeTrace(session.trace());

      sim::CostModel model;
      model.iterationCost.assign(scop.numStatements(), 50e-6);
      model.taskOverhead = 1e-6;
      const sim::SimResult predicted =
          sim::simulate(prog, model, sim::SimConfig{4});
      sim::appendPredictedTimeline(session.trace(), predicted, prog, scop);

      if (!tracePath.empty()) {
        std::ofstream out(tracePath);
        if (!out.good()) {
          std::fprintf(stderr, "pipolyc: cannot write '%s'\n",
                       tracePath.c_str());
          return 2;
        }
        out << trace::toChromeJson(session.trace());
        std::fprintf(stderr, "pipolyc: wrote trace to '%s'\n",
                     tracePath.c_str());
      }
      if (metricsOut)
        std::printf("%s\n", trace::toJson(metrics).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipolyc: %s\n", e.what());
    return 1;
  }
  return 0;
}
