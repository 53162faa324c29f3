// Pipeline-detection benchmarks: the paper-suite detection timing
// (EXPERIMENTS.md E17/E18) and reduction-aware detection (E21).
//
// Usage:
//   bench_detect --suite | --reduction [--smoke] [--json=FILE]
//                [--trace=FILE]
//
// --suite times end-to-end detection over the paper programs P1-P10 at
// N=16 (the E17/E18 metric). --json=FILE writes the measurements as
// machine-readable JSON (BENCH_detect.json).
//
// --reduction benchmarks reductionMode=off vs auto over the reduction
// kernel grid and gates on the partial-reduction structure (exactly one
// relaxed statement per kernel, >1 partial block, one combine task);
// with --smoke it runs the small CI configuration. --json=FILE writes
// BENCH_reduction.json.
//
// --trace=FILE traces the run (detection phase spans, per-unit spans)
// and writes Chrome Trace Event JSON for chrome://tracing / Perfetto.

#include "pipeline/detect.hpp"

#include "bench_common.hpp"
#include "codegen/task_program.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "support/stopwatch.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace {

using namespace pipoly;

/// Best-of-`reps` detection time; `out` receives the first run's result.
double timeDetect(const scop::Scop& scop, int reps,
                  pipeline::PipelineInfo& out) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const double t = sw.seconds();
    if (r == 0 || t < best)
      best = t;
    if (r == 0)
      out = std::move(info);
  }
  return best;
}

/// End-to-end detection over the paper suite P1-P10 at N=16 (the
/// EXPERIMENTS.md E17/E18 metric), with an optional JSON dump.
int runSuite(const std::string& jsonPath) {
  constexpr pb::Value kN = 16;
  constexpr int kReps = 10;
  std::vector<scop::Scop> scops;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    scops.push_back(kernels::buildProgram(spec, kN));

  pipoly::bench::Table table({"program", "detect_ms", "maps", "blocks"});
  std::vector<double> perProgram;
  std::vector<std::size_t> blocks;
  double total = 0;
  const auto& specs = kernels::table9Programs();
  for (std::size_t p = 0; p < scops.size(); ++p) {
    // detect_ms is the whole route ladder: the closed forms plus the
    // per-pair fallback.
    pipeline::PipelineInfo info;
    const double sec = timeDetect(scops[p], kReps, info);
    perProgram.push_back(sec);
    blocks.push_back(info.totalBlocks());
    total += sec;
    table.addRow({specs[p].name, pipoly::bench::fmt(sec * 1e3, 3),
                  std::to_string(info.maps.size()),
                  std::to_string(info.totalBlocks())});
  }
  std::printf("bench_detect --suite: P1-P10, N=%lld "
              "(best-of-%d per program)\n",
              static_cast<long long>(kN), kReps);
  table.print();
  std::printf("total detect: %.3f ms\n", total * 1e3);

  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    if (!out.good()) {
      std::printf("bench_detect: cannot write '%s'\n", jsonPath.c_str());
      return 1;
    }
    out << "{\n  \"suite\": \"P1-P10\",\n  \"n\": " << kN
        << ",\n  \"reps\": " << kReps << ",\n  \"programs\": [\n";
    for (std::size_t p = 0; p < perProgram.size(); ++p)
      out << "    {\"name\": \"" << specs[p].name
          << "\", \"detect_ms\": " << perProgram[p] * 1e3
          << ", \"blocks\": " << blocks[p] << "}"
          << (p + 1 < perProgram.size() ? ",\n" : "\n");
    out << "  ],\n  \"total_detect_ms\": " << total * 1e3 << "\n}\n";
    std::printf("bench_detect: wrote '%s'\n", jsonPath.c_str());
  }
  return 0;
}

/// Reduction-aware detection over the reduction kernel grid
/// (EXPERIMENTS.md E21): reductionMode=off vs auto on dot-product-chain,
/// histogram and stencil-accumulate, reporting detection cost and the
/// per-accumulation-statement block counts. Gates (also the CI smoke
/// hook): auto classifies exactly one reduction statement per kernel,
/// splits it into more than one partial block, never into fewer blocks
/// than the off route, and the lowering emits exactly one combine task.
/// --json=FILE writes the table as BENCH_reduction.json.
int runReduction(bool smoke, const std::string& jsonPath) {
  const pb::Value n = smoke ? 16 : 48;
  const int kReps = smoke ? 1 : 10;
  using RMode = pipeline::DetectOptions::ReductionMode;

  pipoly::bench::Table table({"kernel", "off_ms", "auto_ms", "stmt_blocks_off",
                              "stmt_blocks_auto", "combine_tasks", "status"});
  pipoly::bench::JsonReport json;
  json.meta("mode", pipoly::bench::JsonReport::str("reduction"));
  json.meta("n", pipoly::bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("reps", pipoly::bench::JsonReport::num(
                        static_cast<std::uint64_t>(kReps)));
  int failures = 0;

  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const scop::Scop scop = spec.build(n);
    const auto timeMode = [&](RMode mode, pipeline::PipelineInfo* out) {
      pipeline::DetectOptions opt;
      opt.reductionMode = mode;
      // The off route needs the §7 knob for the non-injective
      // accumulation write, exactly as a legacy run would.
      opt.allowNonInjectiveWrites = mode == RMode::Off;
      double best = 0;
      for (int r = 0; r < kReps; ++r) {
        Stopwatch sw;
        pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
        const double t = sw.seconds();
        if (r == 0 || t < best)
          best = t;
        if (out && r == 0)
          *out = std::move(info);
      }
      return best;
    };

    pipeline::PipelineInfo off, aut;
    const double offSec = timeMode(RMode::Off, &off);
    const double autSec = timeMode(RMode::Auto, &aut);
    const std::size_t offBlocks =
        off.statements[spec.reductionStmt].blockReps.size();
    const std::size_t autBlocks =
        aut.statements[spec.reductionStmt].blockReps.size();

    pipeline::DetectOptions autoOpt;
    const codegen::TaskProgram prog = codegen::compilePipeline(scop, autoOpt);
    std::size_t combines = 0;
    for (const codegen::Task& t : prog.tasks)
      combines += t.kind == codegen::TaskKind::ReductionCombine ? 1 : 0;

    const bool ok = aut.stats.reductionStatements == 1 &&
                    aut.statements[spec.reductionStmt].reduction.relaxed &&
                    autBlocks > 1 && autBlocks >= offBlocks && combines == 1;
    failures += ok ? 0 : 1;
    table.addRow({spec.name, pipoly::bench::fmt(offSec * 1e3, 3),
                  pipoly::bench::fmt(autSec * 1e3, 3),
                  std::to_string(offBlocks), std::to_string(autBlocks),
                  std::to_string(combines), ok ? "ok" : "FAIL"});
    json.beginProgram(spec.name);
    json.field("off_ms", pipoly::bench::JsonReport::num(offSec * 1e3));
    json.field("auto_ms", pipoly::bench::JsonReport::num(autSec * 1e3));
    json.field("stmt_blocks_off", pipoly::bench::JsonReport::num(
                                      static_cast<std::uint64_t>(offBlocks)));
    json.field("stmt_blocks_auto", pipoly::bench::JsonReport::num(
                                       static_cast<std::uint64_t>(autBlocks)));
    json.field("combine_tasks", pipoly::bench::JsonReport::num(
                                    static_cast<std::uint64_t>(combines)));
    json.field("ok", ok ? "true" : "false");
  }

  std::printf("bench_detect --reduction: reduction kernel grid, N=%lld "
              "(best-of-%d)\n",
              static_cast<long long>(n), kReps);
  table.print();
  if (!jsonPath.empty() && !json.write("bench_detect_reduction", jsonPath))
    return 1;
  if (failures != 0) {
    std::printf("bench_detect --reduction: FAIL — %d kernel(s) missed the "
                "partial-reduction gates\n",
                failures);
    return 1;
  }
  std::printf("bench_detect --reduction: OK — every accumulation nest "
              "splits into parallel partial blocks plus one combine\n");
  return 0;
}

/// Stops `session` and writes its trace to `path` (no-op on empty path).
int dumpTrace(trace::Session& session, const std::string& path) {
  if (path.empty())
    return 0;
  session.stop();
  std::ofstream out(path);
  if (!out.good()) {
    std::printf("bench_detect: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << trace::toChromeJson(session.trace());
  std::printf("bench_detect: wrote trace to '%s'\n", path.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: bench_detect --suite | --reduction [--smoke] "
                       "[--json=FILE] [--trace=FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string tracePath, jsonPath;
  bool smoke = false, suite = false, reduction = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[a], "--suite") == 0)
      suite = true;
    else if (std::strcmp(argv[a], "--reduction") == 0)
      reduction = true;
    else if (std::strncmp(argv[a], "--trace=", 8) == 0)
      tracePath = argv[a] + 8;
    else if (std::strncmp(argv[a], "--json=", 7) == 0)
      jsonPath = argv[a] + 7;
    else
      return usage();
  }
  if (!reduction && !suite)
    return usage();

  trace::Session session;
  if (!tracePath.empty()) {
    trace::setThreadName("main");
    session.start();
  }

  const int rc = reduction ? runReduction(smoke, jsonPath) : runSuite(jsonPath);
  const int traceRc = dumpTrace(session, tracePath);
  return rc != 0 ? rc : traceRc;
}
