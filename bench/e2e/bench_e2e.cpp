// bench_e2e — the end-to-end, layer-by-layer benchmark of the whole stack.
//
// One workload per process. A workload is a set of programs; set-up
// compiles every program layer by layer (frontend -> detect -> schedule
// -> AST -> codegen + validate -> optimize + slot table -> communication
// analysis, the same result as codegen::compilePipeline followed by the
// optimizer) and constructs its replay graph and channel pipeline. The
// timed phase runs rounds: each round times one more set-up pass, then
// runs every (program, route) cell once, in an order permuted by --seed.
// A cell constructs its route, runs one untimed warm batch, resets the
// statement body, times B batches and compares the body's fingerprint
// with the sequential oracle (one op). Routes:
//
//   seq      tasking::executeSequential
//   replay1  CompiledPipeline, numThreads = 1
//   replay   CompiledPipeline, default ReplayOptions (nproc workers)
//   channel  ChannelPipeline at nproc workers, rings sized by the comm pass
//   pool     executeTaskProgram on the work-stealing pool backend (nproc)
//   openmp   executeTaskProgram on the OpenMP backend (nproc)
//
// Every end-to-end time is a per-round sum over the workload's programs,
// reported as the median over rounds; serial_s takes per program the
// faster of seq and replay1, so every parallel route is compared with the
// best single-thread route, never only with another parallel route. The
// result line scales every end-to-end time to the reference host's speed
// (HostSpeed); the --json report keeps the measured times too.
//
// Workloads (why each exists is in README.md):
//   t9_kernel       Table 9 P1-P10 from source, next_prime body (Fig. 10)
//   t9_fine         the same programs, ~0.1 us hash body, 32 streamed batches
//   reduction_grid  the four reduction kernels, partial blocks + combine
//   compile_large   Table 9 at N=48, Fig. 11 matmul chains at N=16, the
//                   reduction grid at N=48: set-up dominates each round
//
// Flags:
//   --workload=NAME   one of the four workloads (required unless --smoke)
//   --seed=N          hash-body inputs and per-round cell order (default 1)
//   --seconds=S       length of the timed phase (default 20)
//   --trace=FILE      traced run instead: bench-side spans around every
//                     layer call, the 1..4 thread sweep of every parallel
//                     route, channel stats, simulator error, reduction off
//                     vs auto; writes FILE (Chrome trace) and FILE with
//                     .metrics.json (trace::summarizeTrace) and prints the
//                     per-layer metrics
//   --json=FILE       also write the detailed report (quartiles, tails,
//                     per-program rows, derived speedups, host metadata)
//   --smoke           toy sizes, all workloads and routes, both modes;
//                     checks fingerprints, the layer-by-layer compile
//                     against codegen::compilePipeline, and that every
//                     metric --benchmark-json=FILE names is reported and
//                     finite
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the metrics are the end-to-end metrics, or the
// per-layer metrics of a traced run. Exit status 1 on any mismatch.

#include "../bench_common.hpp"
#include "hash_runner.hpp"

#include "ast/ast.hpp"
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
#include "schedule/build.hpp"
#include "sim/calibrate.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#ifndef PIPOLY_E2E_BUILD_TYPE
#define PIPOLY_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pipoly;

// ---------------------------------------------------------------------------
// Routes and metric names

enum class Route { Seq, Replay1, Replay, Channel, Pool, OpenMP };
constexpr std::size_t kNumRoutes = 6;
constexpr std::array<Route, kNumRoutes> kRoutes = {
    Route::Seq,     Route::Replay1, Route::Replay,
    Route::Channel, Route::Pool,    Route::OpenMP};
constexpr std::array<const char*, kNumRoutes> kRouteName = {
    "seq", "replay1", "replay", "channel", "pool", "openmp"};
// trace::Span keeps names by pointer, so every span name is a literal.
constexpr std::array<const char*, kNumRoutes> kRouteSpan = {
    "e2e.exec.seq",     "e2e.exec.replay1", "e2e.exec.replay",
    "e2e.exec.channel", "e2e.exec.pool",    "e2e.exec.openmp"};

std::size_t idx(Route r) { return static_cast<std::size_t>(r); }

// The traced thread sweep: every parallel route at 1..kSweepThreads
// workers (the metric names are fixed, so the sweep is too; on a host
// with fewer cores the upper counts oversubscribe).
constexpr unsigned kSweepThreads = 4;
constexpr std::array<Route, 4> kSweepRoutes = {Route::Replay, Route::Channel,
                                               Route::Pool, Route::OpenMP};
constexpr const char* kSweepSpan[4][kSweepThreads] = {
    {"e2e.exec.replay.t1", "e2e.exec.replay.t2", "e2e.exec.replay.t3",
     "e2e.exec.replay.t4"},
    {"e2e.exec.channel.t1", "e2e.exec.channel.t2", "e2e.exec.channel.t3",
     "e2e.exec.channel.t4"},
    {"e2e.exec.pool.t1", "e2e.exec.pool.t2", "e2e.exec.pool.t3",
     "e2e.exec.pool.t4"},
    {"e2e.exec.openmp.t1", "e2e.exec.openmp.t2", "e2e.exec.openmp.t3",
     "e2e.exec.openmp.t4"}};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},   {"serial_s", "s"}, {"replay_s", "s"},
    {"channel_s", "s"}, {"pool_s", "s"},   {"openmp_s", "s"},
    {"peak_rss_mb", "MB"}};

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Workloads

struct ProgramDef {
  std::string name;
  std::string source;                 // frontend input; empty = `build`
  std::function<scop::Scop()> build;  // kernel-library builder
  const kernels::ProgramSpec* spec = nullptr; // Table 9 (next_prime nums)
  bool reduction = false;
};

struct Workload {
  std::string name;
  std::vector<ProgramDef> programs;
  bool kernelBody = false; // Table 9 programs run SuiteRunner's next_prime
  int size = 0;            // compute SIZE of the kernel / reduction bodies
  std::size_t batches = 1; // B, timed batches per cell
};

const std::vector<std::string> kWorkloadNames = {"t9_kernel", "t9_fine",
                                                 "reduction_grid",
                                                 "compile_large"};

void addTable9(Workload& w, pb::Value n) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    w.programs.push_back({spec.name, kernels::renderProgramSource(spec, n),
                          nullptr, &spec, false});
}

void addReductionGrid(Workload& w, pb::Value n) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels())
    w.programs.push_back(
        {spec.name, "", [&spec, n] { return spec.build(n); }, nullptr, true});
}

void addMatmulChains(Workload& w, pb::Value n) {
  using V = kernels::MatmulVariant;
  for (std::size_t len : {2u, 3u, 4u})
    for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT})
      w.programs.push_back({kernels::variantName(v) + std::to_string(len), "",
                            [v, len, n] {
                              return kernels::matmulChain(v, len, n);
                            },
                            nullptr, false});
}

/// The four workloads. Sizes put each 20 s timed phase at >= 20 rounds on
/// a 4-core host (BENCH_e2e.json records the counts); `smoke` shrinks
/// everything to a correctness pass of a few seconds.
Workload makeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "t9_kernel") {
    addTable9(w, smoke ? 8 : 16);
    w.kernelBody = true;
    w.size = 1;
    w.batches = 2;
  } else if (name == "t9_fine") {
    addTable9(w, smoke ? 8 : 16);
    w.batches = smoke ? 4 : 32;
  } else if (name == "reduction_grid") {
    // histogramKernel needs N divisible by its 8 bins.
    addReductionGrid(w, 8);
    w.size = 1;
    w.batches = 1;
  } else if (name == "compile_large") {
    addTable9(w, smoke ? 8 : 48);
    addMatmulChains(w, smoke ? 4 : 16);
    addReductionGrid(w, smoke ? 8 : 48);
    w.batches = 1;
  } else {
    PIPOLY_CHECK_MSG(false, "unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Compiled programs and their statement bodies

using Runner =
    std::variant<kernels::SuiteRunner, bench::HashRunner, kernels::ReductionRunner>;

/// A statement body: the runner (heap-held, so the executor's `this`
/// stays valid when the owning Program moves) and its executor.
struct Body {
  std::unique_ptr<Runner> runner;
  tasking::StatementExecutor exec;

  template <class R, class... Args> static Body make(Args&&... args) {
    Body b;
    b.runner = std::make_unique<Runner>(std::in_place_type<R>,
                                        std::forward<Args>(args)...);
    b.exec = std::visit([](auto& r) { return r.executor(); }, *b.runner);
    return b;
  }
  void reset() {
    std::visit([](auto& r) { r.reset(); }, *runner);
  }
  std::uint64_t fingerprint() const {
    return std::visit([](const auto& r) { return r.fingerprint(); }, *runner);
  }
};

struct Program {
  const ProgramDef* def = nullptr;
  std::unique_ptr<scop::Scop> scop; // stable: runners point into it
  std::shared_ptr<const codegen::TaskProgram> tasks; // optimized
  opt::SlotTable slots;
  pipeline::CommInfo comm;
  // Layer census.
  std::size_t fallbackPairs = 0;
  std::size_t loweredTasks = 0;
  std::size_t edgesAfter = 0;
  std::size_t partials = 0;
  bool linear = false;
  // Statement bodies and the sequential oracle fingerprint. A program
  // with partial reductions folds into private accumulators that only its
  // combine tasks fold back, so the seq route, which runs no tasks, gets
  // its own body in ReductionRunner's oracle mode.
  Body body;
  Body seqBody; // partial-reduction programs only
  std::uint64_t oracle = 0;

  Body& bodyFor(Route r) { return r == Route::Seq && seqBody.runner ? seqBody : body; }
};

template <class F> auto inSpan(const char* name, F&& f) {
  trace::Span span(name);
  return f();
}

pipeline::DetectOptions detectOptions(const ProgramDef& def, bool reductionOff) {
  pipeline::DetectOptions options;
  if (reductionOff) {
    options.reductionMode = pipeline::DetectOptions::ReductionMode::Off;
    // Off serializes an accumulation, whose write is non-injective.
    options.allowNonInjectiveWrites = def.reduction;
  }
  return options;
}

/// Source -> optimized task program, one bench-side span per layer call.
/// With `crossCheck` the layered lowering must equal
/// codegen::compilePipeline's (smoke only; not timed).
Program compileProgram(const ProgramDef& def, bool reductionOff,
                       bool crossCheck) {
  Program p;
  p.def = &def;
  p.scop = std::make_unique<scop::Scop>(inSpan("e2e.frontend", [&] {
    return def.source.empty() ? def.build() : frontend::parseProgram(def.source);
  }));
  const scop::Scop& scop = *p.scop;
  const pipeline::DetectOptions options = detectOptions(def, reductionOff);
  const pipeline::PipelineInfo info = inSpan(
      "e2e.detect", [&] { return pipeline::detectPipeline(scop, options); });
  const auto tree = inSpan("e2e.schedule", [&] {
    return sched::buildPipelineSchedule(scop, info);
  });
  const ast::Ast ast =
      inSpan("e2e.ast", [&] { return ast::buildAst(scop, *tree); });
  codegen::TaskProgram prog = inSpan("e2e.codegen", [&] {
    codegen::TaskProgram lowered = codegen::lowerToTasks(scop, ast);
    lowered.validate(scop);
    return lowered;
  });
  if (crossCheck)
    PIPOLY_CHECK_MSG(prog.toString() ==
                         codegen::compilePipeline(scop, options).toString(),
                     def.name + ": layered compile differs from "
                                "codegen::compilePipeline");
  p.loweredTasks = prog.tasks.size();
  {
    trace::Span span("e2e.opt");
    p.edgesAfter = opt::optimize(prog).edgesAfter;
    p.slots = opt::buildSlotTable(prog);
  }
  p.comm = inSpan("e2e.comm", [&] {
    return pipeline::analyzeCommunication(scop, info);
  });
  p.fallbackPairs = info.stats.fallbackPairs();
  for (const codegen::Task& t : prog.tasks)
    if (t.kind == codegen::TaskKind::ReductionCombine)
      p.partials += t.iterations.size();
  p.tasks = std::make_shared<const codegen::TaskProgram>(std::move(prog));
  return p;
}

tasking::ChannelOptions channelOptions(unsigned workers) {
  tasking::ChannelOptions options;
  options.numWorkers = workers;
  return options;
}

/// Constructs (and tears down) the replay graph and channel pipeline a
/// run needs — the tail of set-up.
void buildRoutes(Program& p) {
  {
    trace::Span span("e2e.replay.build");
    const tasking::CompiledPipeline replay(p.tasks, p.slots);
    p.linear = replay.linear();
  }
  {
    trace::Span span("e2e.channel.build");
    const tasking::ChannelPipeline channel(p.tasks, channelOptions(hostThreads()),
                                           &p.comm);
  }
}

/// One set-up pass: every program compiled with its routes constructed.
std::vector<Program> compileAll(const Workload& w, bool reductionOff,
                                bool crossCheck) {
  std::vector<Program> programs;
  programs.reserve(w.programs.size());
  for (const ProgramDef& def : w.programs) {
    programs.push_back(compileProgram(def, reductionOff, crossCheck));
    buildRoutes(programs.back());
  }
  return programs;
}

/// Installs the statement body. `reductionOff` programs serialize
/// accumulations, so their reduction body folds straight into the arrays
/// (ReductionRunner's oracle mode).
void attachBody(Program& p, const Workload& w, std::uint64_t seed,
                bool reductionOff) {
  using kernels::ReductionRunner;
  const scop::Scop& scop = *p.scop;
  if (p.def->reduction) {
    p.seqBody = Body::make<ReductionRunner>(scop, w.size);
    p.body = reductionOff ? Body::make<ReductionRunner>(scop, w.size)
                          : Body::make<ReductionRunner>(scop, *p.tasks, w.size);
  } else if (w.kernelBody) {
    p.body = Body::make<kernels::SuiteRunner>(*p.def->spec, scop, w.size);
  } else {
    p.body = Body::make<bench::HashRunner>(scop, seed);
  }
}

/// Records the oracle: the fingerprint after B sequential batches from the
/// reset state.
void recordOracle(Program& p, const Workload& w) {
  Body& oracle = p.bodyFor(Route::Seq);
  oracle.reset();
  for (std::size_t b = 0; b < w.batches; ++b)
    tasking::executeSequential(*p.scop, oracle.exec);
  p.oracle = oracle.fingerprint();
}

// ---------------------------------------------------------------------------
// Cells

/// Fingerprint comparisons against the sequential oracle.
struct Accounting {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++ops;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// A constructed route: runs `batches` batches of the program's body.
struct RouteRun {
  std::function<void(std::size_t)> run;
  std::shared_ptr<tasking::ChannelPipeline> channel; // channel route only
};

/// Runs `batches` batches on a streaming route: one replay() for a single
/// batch (the linear fast path applies there), replayBatches() otherwise.
template <class Pipe>
void stream(Pipe& pipe, std::size_t batches,
            const tasking::StatementExecutor& exec) {
  if (batches == 1)
    pipe.replay(exec);
  else
    pipe.replayBatches(batches, [&exec](std::size_t, std::size_t s,
                                        const pb::Tuple& it) { exec(s, it); });
}

/// `threads` = 0 selects the route's default: ReplayOptions' own default
/// for replay (what a user gets), nproc workers for the others.
RouteRun makeRoute(Route route, unsigned threads, const Program& p,
                   const tasking::StatementExecutor& exec) {
  const unsigned workers = threads != 0 ? threads : hostThreads();
  switch (route) {
  case Route::Seq:
    return {[&p, &exec](std::size_t batches) {
              for (std::size_t b = 0; b < batches; ++b)
                tasking::executeSequential(*p.scop, exec);
            },
            nullptr};
  case Route::Replay1:
  case Route::Replay: {
    tasking::ReplayOptions options;
    if (route == Route::Replay1)
      options.numThreads = 1;
    else if (threads != 0)
      options.numThreads = threads;
    auto pipe =
        std::make_shared<tasking::CompiledPipeline>(p.tasks, p.slots, options);
    return {[pipe, &exec](std::size_t batches) { stream(*pipe, batches, exec); },
            nullptr};
  }
  case Route::Channel: {
    auto pipe = std::make_shared<tasking::ChannelPipeline>(
        p.tasks, channelOptions(workers), &p.comm);
    return {[pipe, &exec](std::size_t batches) { stream(*pipe, batches, exec); },
            pipe};
  }
  case Route::Pool:
  case Route::OpenMP: {
    std::shared_ptr<tasking::TaskingLayer> layer;
    if (route == Route::Pool) {
      layer = tasking::makeThreadPoolBackend(workers);
    } else {
#ifdef _OPENMP
      omp_set_num_threads(static_cast<int>(workers));
#endif
      layer = tasking::makeOpenMPBackend();
      PIPOLY_CHECK_MSG(layer != nullptr, "built without OpenMP support");
    }
    return {[layer, &p, &exec](std::size_t batches) {
              for (std::size_t b = 0; b < batches; ++b)
                tasking::executeTaskProgram(*p.tasks, p.slots, *layer, exec);
            },
            nullptr};
  }
  }
  PIPOLY_CHECK_MSG(false, "unknown route");
}

/// Channel counters of the timed batches of one cell.
struct ChannelDelta {
  std::uint64_t batches = 0, tasks = 0, pushStalls = 0, tokenWaits = 0,
                ackWaits = 0;

  void add(const ChannelDelta& o) {
    batches += o.batches;
    tasks += o.tasks;
    pushStalls += o.pushStalls;
    tokenWaits += o.tokenWaits;
    ackWaits += o.ackWaits;
  }
};

/// Runs one cell and returns the seconds of its B timed batches.
double runCell(Program& p, Route route, unsigned threads, std::size_t batches,
               const char* spanName, Accounting& acct,
               ChannelDelta* channelDelta = nullptr) {
  Body& body = p.bodyFor(route);
  RouteRun r = makeRoute(route, threads, p, body.exec);
  body.reset();
  r.run(1); // warm batch
  body.reset();
  tasking::ChannelPipeline::Stats before{};
  if (r.channel)
    before = r.channel->stats();
  Stopwatch watch;
  {
    trace::Span span(spanName);
    r.run(batches);
  }
  const double seconds = watch.seconds();
  acct.check(body.fingerprint() == p.oracle, p.def->name + "/" + spanName);
  if (channelDelta != nullptr && r.channel) {
    const tasking::ChannelPipeline::Stats after = r.channel->stats();
    channelDelta->add({batches, batches * p.tasks->tasks.size(),
                       after.pushStalls - before.pushStalls,
                       after.tokenWaits - before.tokenWaits,
                       after.ackWaits - before.ackWaits});
  }
  return seconds;
}

template <class T> void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

// ---------------------------------------------------------------------------
// Statistics and output

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
  int tailPercentile = 0; // highest with >= 10 samples beyond it; 0 = none
  double tail = 0;
};

double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty())
    return s;
  std::sort(v.begin(), v.end());
  s.n = v.size();
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  if (s.n >= 20) {
    s.tailPercentile = static_cast<int>(
        std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(s.n))));
    s.tail = quantile(v, s.tailPercentile / 100.0);
  }
  return s;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return bench::JsonReport::str(s); }

/// Insertion-ordered JSON object of pre-rendered fragments.
class JsonObject {
public:
  JsonObject& add(const std::string& key, const std::string& fragment) {
    fields_.emplace_back(key, fragment);
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return add(key, num(v)); }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? ", " : "") + quote(fields_[i].first) + ": " +
             fields_[i].second;
    return out + "}";
  }

private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string summaryJson(const Summary& s, const char* unit) {
  JsonObject o;
  o.add("median", s.median).add("q1", s.q1).add("q3", s.q3);
  o.add("n", static_cast<double>(s.n)).add("unit", quote(unit));
  if (s.tailPercentile > 0)
    o.add("p" + std::to_string(s.tailPercentile), s.tail);
  return o.str();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string hostJson() {
  const char* wait = std::getenv("OMP_WAIT_POLICY");
  JsonObject o;
  o.add("nproc", static_cast<double>(hostThreads()));
  o.add("cpu", quote(cpuModel()));
  o.add("compiler", quote(std::string("GCC ") + __VERSION__));
  o.add("build_type", quote(PIPOLY_E2E_BUILD_TYPE));
  o.add("openmp", tasking::openMPAvailable() ? "true" : "false");
  o.add("omp_wait_policy", quote(wait != nullptr ? wait : "(default)"));
  return o.str();
}

struct Result {
  std::map<std::string, double> metrics; // printed metrics
  std::map<std::string, std::string> units;
  Accounting acct;
  std::string detail; // --json report
};

/// {"name": {"value", "unit"}} of the printed metrics.
std::string resultMetricsJson(const Result& r) {
  JsonObject metrics;
  for (const auto& [name, value] : r.metrics)
    metrics.add(name, JsonObject()
                          .add("value", value)
                          .add("unit", quote(r.units.at(name)))
                          .str());
  return metrics.str();
}

void printResultLine(const Result& r) {
  JsonObject line;
  line.add("correct", r.acct.failed == 0 && r.acct.ops > 0 ? "true" : "false");
  line.add("attempted", std::to_string(r.acct.ops));
  line.add("failed", std::to_string(r.acct.failed));
  line.add("metrics", resultMetricsJson(r));
  std::printf("%s\n", line.str().c_str());
}

// ---------------------------------------------------------------------------
// Host speed

/// The speed of the host during a run, from fixed bench-local work that no
/// change to the program can touch: a multiply-xor hash over an L2-sized
/// buffer (compute) and a pointer chase through a 4 MiB random cycle
/// (memory latency). On a shared host both drift by 10-40% over minutes,
/// and every timing of a run drifts with them; compute-bound workloads
/// follow the first, orchestration-bound ones the second. One sample per
/// round is the geometric mean of the two loops' medians of five.
class HostSpeed {
public:
  /// A typical median sample on the 4-core host BENCH_e2e.json was
  /// recorded on. A run whose median sample is x reports every time
  /// scaled by nominal / x.
  static constexpr double kNominalSeconds = 2.2e-3;

  HostSpeed() : buffer_(1u << 16, 1), next_(1u << 20) {
    std::vector<std::uint32_t> order(next_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
      order[i] = i;
    SplitMix64 rng(0x5eed);
    for (std::size_t i = order.size() - 1; i > 1; --i) // one cycle from 0
      std::swap(order[i], order[1 + rng.nextBelow(i)]);
    for (std::size_t i = 0; i < order.size(); ++i)
      next_[order[i]] = order[(i + 1) % order.size()];
  }

  void sample() {
    samples_.push_back(std::sqrt(medianOfFive([this] { compute(); }) *
                                 medianOfFive([this] { chase(); })));
  }
  const std::vector<double>& samples() const { return samples_; }

private:
  template <class F> static double medianOfFive(F&& f) {
    std::array<double, 5> t{};
    for (double& s : t) {
      Stopwatch watch;
      f();
      s = watch.seconds();
    }
    std::sort(t.begin(), t.end());
    return t[2];
  }
  void compute() {
    std::uint64_t h = sink_;
    for (int pass = 0; pass < 20; ++pass)
      for (std::uint64_t& v : buffer_) {
        h = (h ^ v) * 0x100000001b3ull;
        v = h >> 7;
      }
    sink_ = h;
  }
  void chase() {
    std::uint32_t p = static_cast<std::uint32_t>(sink_ % next_.size());
    for (int step = 0; step < 50000; ++step)
      p = next_[p];
    sink_ += p;
  }

  std::vector<std::uint64_t> buffer_;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool smoke = false;
};

Result runUntraced(const Workload& w, const RunConfig& cfg) {
  Result res;
  std::vector<Program> programs = compileAll(w, false, cfg.smoke);
  for (Program& p : programs) {
    attachBody(p, w, cfg.seed, false);
    recordOracle(p, w);
  }
  std::vector<std::pair<std::size_t, Route>> cells;
  for (std::size_t pi = 0; pi < programs.size(); ++pi)
    for (Route r : kRoutes)
      cells.emplace_back(pi, r);

  SplitMix64 rng(hashCombine(cfg.seed, 0xce11));
  std::vector<double> setupSamples;
  std::map<std::string, std::vector<double>> rounds; // e2e metric samples
  // [program][route] per-round seconds, for the per-program rows.
  std::vector<std::array<std::vector<double>, kNumRoutes>> perProgram(
      programs.size());
  HostSpeed speed;
  Stopwatch phase;
  std::size_t numRounds = 0;
  while (numRounds == 0 || phase.seconds() < cfg.seconds) {
    // One set-up pass per round: host speed drifts over a run, so samples
    // spread over all of it are steadier than a block at the start.
    {
      Stopwatch watch;
      const std::vector<Program> pass = compileAll(w, false, false);
      setupSamples.push_back(watch.seconds());
    }
    shuffle(cells, rng);
    std::vector<std::array<double, kNumRoutes>> t(programs.size());
    for (const auto& [pi, route] : cells)
      t[pi][idx(route)] = runCell(programs[pi], route, 0, w.batches,
                                  kRouteSpan[idx(route)], res.acct);
    std::array<double, kNumRoutes> sum{};
    double serial = 0;
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      for (std::size_t r = 0; r < kNumRoutes; ++r) {
        sum[r] += t[pi][r];
        perProgram[pi][r].push_back(t[pi][r]);
      }
      serial += std::min(t[pi][idx(Route::Seq)], t[pi][idx(Route::Replay1)]);
    }
    rounds["serial_s"].push_back(serial);
    for (Route r : {Route::Replay, Route::Channel, Route::Pool, Route::OpenMP})
      rounds[std::string(kRouteName[idx(r)]) + "_s"].push_back(sum[idx(r)]);
    rounds["seq_s"].push_back(sum[idx(Route::Seq)]);
    rounds["replay1_s"].push_back(sum[idx(Route::Replay1)]);
    speed.sample(); // no route is alive here
    ++numRounds;
  }
  const double timedSeconds = phase.seconds();

  std::map<std::string, Summary> summaries;
  summaries["setup_s"] = summarize(setupSamples);
  for (const auto& [name, samples] : rounds)
    summaries[name] = summarize(samples);
  const Summary reference = summarize(speed.samples());
  const double scale = HostSpeed::kNominalSeconds / reference.median;
  for (const MetricDef& m : kEndToEnd) {
    res.units[m.name] = m.unit;
    res.metrics[m.name] = m.name == std::string("peak_rss_mb")
                              ? peakRssMb()
                              : summaries.at(m.name).median * scale;
  }

  // Human-readable report of the measured times (the JSON result line,
  // scaled to the reference host, follows it).
  std::printf("== bench_e2e %s: %zu programs, B=%zu, %zu rounds in %.1f s, "
              "%zu set-up passes, nproc=%u ==\n",
              w.name.c_str(), programs.size(), w.batches, numRounds,
              timedSeconds, setupSamples.size(), hostThreads());
  std::printf("host speed: reference sample %.4f ms (nominal %.4f ms), "
              "reported times scaled by %.4f\n",
              reference.median * 1e3, HostSpeed::kNominalSeconds * 1e3, scale);
  bench::Table table({"metric", "unit", "median", "q1", "q3", "n", "tail"});
  for (const auto& [name, s] : summaries)
    table.addRow({name, "s", bench::fmt(s.median, 6), bench::fmt(s.q1, 6),
                  bench::fmt(s.q3, 6), std::to_string(s.n),
                  s.tailPercentile > 0 ? "p" + std::to_string(s.tailPercentile) +
                                             "=" + bench::fmt(s.tail, 6)
                                       : "-"});
  table.addRow({"peak_rss_mb", "MB", bench::fmt(res.metrics["peak_rss_mb"], 1),
                "-", "-", "1", "-"});
  table.print();
  const double serial = summaries.at("serial_s").median;
  JsonObject derived;
  std::printf("speedups over the best single-thread route (serial_s / x):");
  for (const char* m : {"replay_s", "channel_s", "pool_s", "openmp_s"}) {
    const double s = serial / summaries.at(m).median;
    derived.add(std::string("serial_s/") + m, s);
    std::printf(" %s %.2fx", m, s);
  }
  std::printf("\nops %llu, failed %llu\n",
              static_cast<unsigned long long>(res.acct.ops),
              static_cast<unsigned long long>(res.acct.failed));
  for (const std::string& f : res.acct.failures)
    std::printf("FINGERPRINT MISMATCH: %s\n", f.c_str());

  JsonObject metrics;
  for (const auto& [name, s] : summaries)
    metrics.add(name, summaryJson(s, "s"));
  metrics.add("peak_rss_mb",
              JsonObject().add("value", res.metrics["peak_rss_mb"])
                  .add("unit", quote("MB")).str());
  std::string rows = "[";
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    const Program& p = programs[pi];
    JsonObject row;
    row.add("name", quote(p.def->name));
    row.add("tasks", static_cast<double>(p.tasks->tasks.size()));
    row.add("edges", static_cast<double>(p.edgesAfter));
    row.add("linear", p.linear ? "true" : "false");
    for (std::size_t r = 0; r < kNumRoutes; ++r)
      row.add(std::string(kRouteName[r]) + "_s",
              summarize(perProgram[pi][r]).median);
    rows += (pi ? ",\n    " : "\n    ") + row.str();
  }
  rows += "\n  ]";
  JsonObject detail;
  detail.add("workload", quote(w.name)).add("mode", quote("untraced"));
  detail.add("seed", static_cast<double>(cfg.seed));
  detail.add("batches", static_cast<double>(w.batches));
  detail.add("rounds", static_cast<double>(numRounds));
  detail.add("timed_seconds", timedSeconds);
  detail.add("host", hostJson());
  detail.add("ops", std::to_string(res.acct.ops));
  detail.add("failed", std::to_string(res.acct.failed));
  detail.add("result", resultMetricsJson(res));
  detail.add("host_speed", JsonObject()
                               .add("reference", summaryJson(reference, "s"))
                               .add("nominal_s", HostSpeed::kNominalSeconds)
                               .add("scale", scale)
                               .str());
  detail.add("metrics", metrics.str());
  detail.add("derived", derived.str());
  detail.add("programs", rows);
  res.detail = detail.str();
  return res;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics

constexpr MetricDef kPerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"detect.ms", "ms"},
    {"detect.fallback_pairs", "count"},
    {"schedule.ms", "ms"},
    {"ast.ms", "ms"},
    {"codegen.ms", "ms"},
    {"codegen.tasks", "count"},
    {"opt.ms", "ms"},
    {"opt.edges_after", "count"},
    {"comm.ms", "ms"},
    {"replay.build_ms", "ms"},
    {"replay.linear_programs", "count"},
    {"channel.build_ms", "ms"},
    {"exec.seq_s", "s"},
    {"exec.replay1_s", "s"},
    {"exec.replay.t1_s", "s"},
    {"exec.replay.t2_s", "s"},
    {"exec.replay.t3_s", "s"},
    {"exec.replay.t4_s", "s"},
    {"exec.channel.t1_s", "s"},
    {"exec.channel.t2_s", "s"},
    {"exec.channel.t3_s", "s"},
    {"exec.channel.t4_s", "s"},
    {"exec.pool.t1_s", "s"},
    {"exec.pool.t2_s", "s"},
    {"exec.pool.t3_s", "s"},
    {"exec.pool.t4_s", "s"},
    {"exec.openmp.t1_s", "s"},
    {"exec.openmp.t2_s", "s"},
    {"exec.openmp.t3_s", "s"},
    {"exec.openmp.t4_s", "s"},
    {"channel.useful_poll_ratio", "ratio"},
    {"channel.push_stalls", "count"},
    {"channel.token_waits", "count"},
    {"channel.ack_waits", "count"},
    {"kernel.body_us", "us"},
    {"reduction.partials", "count"},
    {"exec.replay_off_s", "s"},
    {"sim.replay_err", "ratio"},
    {"sim.channel_err", "ratio"},
    {"sim.rank_agree", "ratio"},
    {"trace.overhead", "ratio"},
};

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

std::size_t argmin3(double a, double b, double c) {
  return a <= b && a <= c ? 0 : (b <= c ? 1 : 2);
}

Result runTraced(const Workload& w, const RunConfig& cfg,
                 const std::string& tracePath) {
  Result res;
  const unsigned nproc = hostThreads();
  std::vector<Program> programs = compileAll(w, false, false);
  std::vector<Program> offPrograms;
  for (const ProgramDef& def : w.programs)
    offPrograms.push_back(compileProgram(def, true, false));
  for (Program& p : programs) {
    attachBody(p, w, cfg.seed, false);
    recordOracle(p, w);
  }
  for (Program& p : offPrograms) {
    attachBody(p, w, cfg.seed, true);
    recordOracle(p, w);
  }

  // Untraced reference of the default replay route, for trace.overhead.
  std::vector<double> untracedReplay;
  {
    Stopwatch phase;
    while (untracedReplay.size() < 3 || phase.seconds() < cfg.seconds * 0.1) {
      double sum = 0;
      for (Program& p : programs)
        sum += runCell(p, Route::Replay, 0, w.batches, "e2e.exec.replay",
                       res.acct);
      untracedReplay.push_back(sum);
      if (cfg.smoke)
        break;
    }
  }

  // Simulator cost model: calibrated statement bodies plus the measured
  // task and depend overheads of the pool backend.
  const double taskOverhead = bench::measureTaskOverhead();
  const double dependOverhead = bench::measureDependOverhead();
  std::vector<sim::CostModel> models;
  double predictedSeqTotal = 0, instances = 0;
  for (Program& p : programs) {
    sim::CostModel model = sim::calibrate(*p.scop, p.body.exec);
    model.taskOverhead = taskOverhead;
    model.dependOverhead = dependOverhead;
    p.body.reset();
    predictedSeqTotal += sim::sequentialTime(*p.scop, model);
    for (const scop::Statement& s : p.scop->statements())
      instances += static_cast<double>(s.domain().size());
    models.push_back(std::move(model));
  }

  trace::Session session;
  trace::setThreadName("main");
  session.start();
  const std::size_t passes = cfg.smoke ? 1 : 3;
  for (std::size_t pass = 0; pass < passes; ++pass)
    compileAll(w, false, false);

  // Rounds of the sweep: seq, replay1, every parallel route at 1..4
  // workers, and the reductionMode=Off program on the default replay route.
  struct SweepCell {
    std::size_t program;
    Route route;
    unsigned threads;
    bool off;
    const char* span;
  };
  std::vector<SweepCell> cells;
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    cells.push_back({pi, Route::Seq, 0, false, kRouteSpan[idx(Route::Seq)]});
    cells.push_back(
        {pi, Route::Replay1, 0, false, kRouteSpan[idx(Route::Replay1)]});
    for (std::size_t ri = 0; ri < kSweepRoutes.size(); ++ri)
      for (unsigned k = 1; k <= kSweepThreads; ++k)
        cells.push_back({pi, kSweepRoutes[ri], k, false, kSweepSpan[ri][k - 1]});
    cells.push_back({pi, Route::Replay, 0, true, "e2e.exec.replay_off"});
  }
  SplitMix64 rng(hashCombine(cfg.seed, 0x7ace));
  std::vector<std::vector<double>> seqT(programs.size()),
      replayT(programs.size()), channelT(programs.size());
  std::vector<double> tracedReplay;
  ChannelDelta channel;
  Stopwatch phase;
  std::size_t numRounds = 0;
  while (numRounds == 0 || (!cfg.smoke && phase.seconds() < cfg.seconds)) {
    shuffle(cells, rng);
    std::vector<double> serial(programs.size(), 1e300);
    double replaySum = 0;
    for (const SweepCell& c : cells) {
      Program& p = c.off ? offPrograms[c.program] : programs[c.program];
      const bool atNproc = c.threads == std::min(nproc, kSweepThreads);
      const double t = runCell(
          p, c.route, c.threads, w.batches, c.span, res.acct,
          c.route == Route::Channel && atNproc ? &channel : nullptr);
      if (c.route == Route::Seq || c.route == Route::Replay1)
        serial[c.program] = std::min(serial[c.program], t);
      if (c.route == Route::Replay && atNproc) {
        replayT[c.program].push_back(t);
        replaySum += t;
      }
      if (c.route == Route::Channel && atNproc)
        channelT[c.program].push_back(t);
    }
    for (std::size_t pi = 0; pi < programs.size(); ++pi)
      seqT[pi].push_back(serial[pi]);
    tracedReplay.push_back(replaySum);
    ++numRounds;
  }
  session.stop();

  const trace::MetricsSummary summary = trace::summarizeTrace(session.trace());
  auto spanSeconds = [&](const std::string& name) {
    for (const trace::SpanStat& s : summary.spans)
      if (s.name == name)
        return static_cast<double>(s.totalNanos) * 1e-9;
    return 0.0;
  };
  std::map<std::string, double>& m = res.metrics;
  const double perPassMs = 1e3 / static_cast<double>(passes);
  for (const auto& [metric, span] :
       std::vector<std::pair<const char*, const char*>>{
           {"frontend.parse_ms", "e2e.frontend"},
           {"detect.ms", "e2e.detect"},
           {"schedule.ms", "e2e.schedule"},
           {"ast.ms", "e2e.ast"},
           {"codegen.ms", "e2e.codegen"},
           {"opt.ms", "e2e.opt"},
           {"comm.ms", "e2e.comm"},
           {"replay.build_ms", "e2e.replay.build"},
           {"channel.build_ms", "e2e.channel.build"}})
    m[metric] = spanSeconds(span) * perPassMs;
  // Per-round execution time of every exec span: "e2e.exec.X" -> "exec.X_s".
  for (const trace::SpanStat& s : summary.spans)
    if (s.name.rfind("e2e.exec.", 0) == 0)
      m[s.name.substr(4) + "_s"] = static_cast<double>(s.totalNanos) * 1e-9 /
                                   static_cast<double>(numRounds);

  double fallback = 0, tasks = 0, edges = 0, linear = 0, partials = 0;
  for (const Program& p : programs) {
    fallback += static_cast<double>(p.fallbackPairs);
    tasks += static_cast<double>(p.loweredTasks);
    edges += static_cast<double>(p.edgesAfter);
    linear += p.linear ? 1 : 0;
    partials += static_cast<double>(p.partials);
  }
  m["detect.fallback_pairs"] = fallback;
  m["codegen.tasks"] = tasks;
  m["opt.edges_after"] = edges;
  m["replay.linear_programs"] = linear;
  m["reduction.partials"] = partials;

  const double polls = static_cast<double>(channel.tasks + channel.pushStalls +
                                           channel.tokenWaits + channel.ackWaits);
  const double chBatches = static_cast<double>(std::max<std::uint64_t>(
      channel.batches, 1));
  // Counters per batch of the whole workload (summed over programs).
  const double programsPerBatch = static_cast<double>(programs.size());
  m["channel.useful_poll_ratio"] =
      polls > 0 ? static_cast<double>(channel.tasks) / polls : 0.0;
  m["channel.push_stalls"] =
      static_cast<double>(channel.pushStalls) / chBatches * programsPerBatch;
  m["channel.token_waits"] =
      static_cast<double>(channel.tokenWaits) / chBatches * programsPerBatch;
  m["channel.ack_waits"] =
      static_cast<double>(channel.ackWaits) / chBatches * programsPerBatch;
  m["kernel.body_us"] = instances > 0 ? predictedSeqTotal / instances * 1e6 : 0;

  // Simulator against measurement, per program.
  const double B = static_cast<double>(w.batches);
  std::vector<double> replayErr, channelErr;
  double agree = 0;
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    const Program& p = programs[pi];
    const sim::CostModel& model = models[pi];
    const double predSerial = B * sim::sequentialTime(*p.scop, model);
    const double predReplay =
        B * sim::simulate(*p.tasks, p.slots, model,
                          sim::SimConfig{std::min(nproc, kSweepThreads)})
                .makespan;
    const double predChannel =
        B * sim::simulateChannels(*p.tasks, p.comm, model).makespan;
    const double measSerial = median(seqT[pi]);
    const double measReplay = median(replayT[pi]);
    const double measChannel = median(channelT[pi]);
    replayErr.push_back(std::abs(predReplay - measReplay) / measReplay);
    channelErr.push_back(std::abs(predChannel - measChannel) / measChannel);
    agree += argmin3(predSerial, predReplay, predChannel) ==
                     argmin3(measSerial, measReplay, measChannel)
                 ? 1
                 : 0;
  }
  m["sim.replay_err"] = median(replayErr);
  m["sim.channel_err"] = median(channelErr);
  m["sim.rank_agree"] = agree / static_cast<double>(programs.size());
  m["trace.overhead"] = median(tracedReplay) / median(untracedReplay) - 1.0;
  for (const MetricDef& d : kPerLayer)
    res.units[d.name] = d.unit;

  // Artifacts: the Chrome trace and the trace::summarizeTrace metrics.
  if (!tracePath.empty()) {
    std::ofstream(tracePath) << trace::toChromeJson(session.trace());
    std::string metricsPath = tracePath;
    if (metricsPath.size() > 5 &&
        metricsPath.compare(metricsPath.size() - 5, 5, ".json") == 0)
      metricsPath.resize(metricsPath.size() - 5);
    std::ofstream(metricsPath + ".metrics.json") << trace::toJson(summary);
  }

  std::printf("== bench_e2e %s (traced): %zu programs, B=%zu, %zu rounds, "
              "%zu traced set-up passes, nproc=%u ==\n",
              w.name.c_str(), programs.size(), w.batches, numRounds, passes,
              nproc);
  bench::Table table({"metric", "unit", "value"});
  JsonObject metrics;
  for (const MetricDef& d : kPerLayer) {
    table.addRow({d.name, d.unit, bench::fmt(m.at(d.name), 6)});
    metrics.add(d.name, m.at(d.name));
  }
  table.print();
  std::printf("ops %llu, failed %llu\n",
              static_cast<unsigned long long>(res.acct.ops),
              static_cast<unsigned long long>(res.acct.failed));
  for (const std::string& f : res.acct.failures)
    std::printf("FINGERPRINT MISMATCH: %s\n", f.c_str());

  JsonObject detail;
  detail.add("workload", quote(w.name)).add("mode", quote("traced"));
  detail.add("seed", static_cast<double>(cfg.seed));
  detail.add("batches", static_cast<double>(w.batches));
  detail.add("rounds", static_cast<double>(numRounds));
  detail.add("host", hostJson());
  detail.add("ops", std::to_string(res.acct.ops));
  detail.add("failed", std::to_string(res.acct.failed));
  detail.add("metrics", metrics.str());
  res.detail = detail.str();
  return res;
}

// ---------------------------------------------------------------------------
// Smoke

/// (name, unit) of every metric object in BENCHMARK.json's `key` array.
std::vector<std::pair<std::string, std::string>>
declaredMetrics(const std::string& json, const std::string& key) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::size_t at = json.find('"' + key + '"');
  PIPOLY_CHECK_MSG(at != std::string::npos, "BENCHMARK.json lacks " + key);
  const std::size_t begin = json.find('[', at);
  const std::size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  static const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  for (std::sregex_iterator it(body.begin(), body.end(), entry), last;
       it != last; ++it)
    out.emplace_back((*it)[1], (*it)[2]);
  return out;
}

int runSmoke(const std::string& benchmarkJson) {
  std::string declared;
  if (!benchmarkJson.empty()) {
    std::ifstream in(benchmarkJson);
    PIPOLY_CHECK_MSG(in.good(), "cannot read " + benchmarkJson);
    std::stringstream ss;
    ss << in.rdbuf();
    declared = ss.str();
  }
  RunConfig cfg;
  cfg.smoke = true;
  cfg.seconds = 0;
  int failures = 0;
  auto fail = [&](const std::string& what) {
    std::printf("SMOKE FAIL: %s\n", what.c_str());
    ++failures;
  };
  for (const std::string& name : kWorkloadNames) {
    const Workload w = makeWorkload(name, true);
    for (bool traced : {false, true}) {
      const Result r = traced ? runTraced(w, cfg, "") : runUntraced(w, cfg);
      if (r.acct.ops == 0 || r.acct.failed != 0)
        fail(name + ": fingerprint mismatch or no ops");
      for (const auto& [metric, value] : r.metrics)
        if (!std::isfinite(value))
          fail(name + ": " + metric + " is not finite");
      if (declared.empty())
        continue;
      for (const auto& [metric, unit] :
           declaredMetrics(declared, traced ? "per_layer" : "end_to_end")) {
        const auto it = r.metrics.find(metric);
        if (it == r.metrics.end())
          fail(name + ": " + metric + " not reported");
        else if (r.units.at(metric) != unit)
          fail(name + ": " + metric + " unit " + r.units.at(metric) +
               " != declared " + unit);
      }
    }
  }
  std::printf("%s\n", failures == 0 ? "bench_e2e smoke PASS" : "bench_e2e smoke FAIL");
  return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  std::string workload, tracePath, jsonPath, benchmarkJson;
  RunConfig cfg;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? argv[i] + len : nullptr;
    };
    if (arg == "--smoke")
      smoke = true;
    else if (const char* v = value("--workload="))
      workload = v;
    else if (const char* v = value("--seed="))
      cfg.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds="))
      cfg.seconds = std::strtod(v, nullptr);
    else if (const char* v = value("--trace="))
      tracePath = v;
    else if (const char* v = value("--json="))
      jsonPath = v;
    else if (const char* v = value("--benchmark-json="))
      benchmarkJson = v;
    else {
      std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  try {
    if (smoke)
      return runSmoke(benchmarkJson);
    if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(), workload) ==
        kWorkloadNames.end()) {
      std::fprintf(stderr, "bench_e2e: --workload must be one of t9_kernel, "
                           "t9_fine, reduction_grid, compile_large\n");
      return 2;
    }
    const Workload w = makeWorkload(workload, false);
    const Result r = tracePath.empty() ? runUntraced(w, cfg)
                                       : runTraced(w, cfg, tracePath);
    if (!jsonPath.empty())
      std::ofstream(jsonPath) << r.detail << '\n';
    printResultLine(r);
    return r.acct.failed == 0 && r.acct.ops > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
