// Reproduces Table 9 / Figure 10: speed-up of the cross-loop-pipelined
// version over the sequential version for programs P1..P10, across a grid
// of (N, SIZE) configurations, on a simulated 8-hardware-thread machine
// (the paper's quad-core with 2 threads/core; see DESIGN.md for the
// simulator substitution).
//
// Per-iteration costs are *measured* on this host by timing the real
// compute kernel (next_prime over a SIZE-element buffer, `num` rounds);
// the task-spawn overhead is measured through the thread-pool backend.
// The simulator then executes the actual task graph produced by the full
// pipeline (Algorithm 1 -> Algorithm 2 -> AST -> codegen).

#include "bench_common.hpp"

#include "codegen/task_program.hpp"
#include "kernels/compute.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "support/stopwatch.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <map>

namespace {

using namespace pipoly;

struct Config {
  pb::Value n;
  int size;
  std::string label() const {
    return indexedName("N", static_cast<std::size_t>(n)) +
           indexedName("/S", static_cast<std::size_t>(size));
  }
};

} // namespace

int main() {
  std::printf("== Figure 10 / Table 9: cross-loop pipelining speed-up "
              "(simulated 8 hw threads) ==\n");
  std::printf("Speed-up of pipelined vs sequential execution; per-iteration "
              "costs measured on this host.\n\n");

  const std::vector<Config> configs = {
      {8, 1},  {8, 2},  {8, 4},  {8, 8},  {8, 16},
      {16, 1}, {16, 2}, {16, 4}, {16, 8}, {16, 16},
  };

  const double taskOverhead = bench::measureTaskOverhead();
  std::printf("measured task overhead: %.2f us\n\n", taskOverhead * 1e6);

  // Cache kernel cost measurements by (num, size).
  std::map<std::pair<int, int>, double> costCache;
  auto kernelCost = [&](int num, int size) {
    auto [it, fresh] = costCache.try_emplace({num, size}, 0.0);
    if (fresh)
      it->second = kernels::measureComputeCost(num, size);
    return it->second;
  };

  // Table 9 (Fig. 9): the programs' specifications and access patterns.
  std::printf("-- Table 9: experimental data --\n");
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    std::printf("%s", kernels::describeProgram(spec).c_str());
  std::printf("\n-- Figure 10: speed-ups --\n");

  std::vector<std::string> header{"prog"};
  for (const Config& c : configs)
    header.push_back(c.label());
  bench::Table table(std::move(header));

  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    std::vector<std::string> row{spec.name};
    for (const Config& cfg : configs) {
      scop::Scop scop = kernels::buildProgram(spec, cfg.n);
      codegen::TaskProgram prog = codegen::compilePipeline(scop);

      sim::CostModel model;
      model.taskOverhead = taskOverhead;
      for (int num : spec.nums)
        model.iterationCost.push_back(kernelCost(num, cfg.size));

      const double seq = sim::sequentialTime(scop, model);
      sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
      row.push_back(bench::fmt(r.speedupOver(seq)));
    }
    table.addRow(std::move(row));
  }
  table.print();

  // -- E16: the task-graph optimizer on the same suite --------------------
  // Edge/task thinning plus simulated makespan and measured dependency-
  // resolution cost (hashed per-run resolution of the raw program vs the
  // interned slot table of the optimized program, reused across runs).
  const pb::Value optN = 48;
  const double dependOverhead = bench::measureDependOverhead();
  std::printf("\n-- E16: task-graph optimizer (N=%lld, fusion width %zu, "
              "measured depend overhead %.3f us) --\n",
              static_cast<long long>(optN),
              opt::OptimizeOptions{}.fusionWidth, dependOverhead * 1e6);

  bench::Table optTable({"prog", "tasks", "tasks_opt", "edges", "edges_opt",
                         "removed", "makespan_ms", "makespan_opt_ms",
                         "resolve_us", "resolve_opt_us"});
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, optN);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    codegen::TaskProgram optimized = prog;
    const opt::OptimizeStats stats = opt::optimize(optimized);
    const opt::SlotTable slots = opt::buildSlotTable(optimized);

    sim::CostModel model;
    model.taskOverhead = taskOverhead;
    model.dependOverhead = dependOverhead;
    for (int num : spec.nums)
      model.iterationCost.push_back(kernelCost(num, 1));

    const sim::SimConfig simCfg{8};
    const double before = sim::simulate(prog, model, simCfg).makespan;
    const double after =
        sim::simulate(optimized, slots, model, simCfg).makespan;

    // Dependency-resolution cost: what a backend pays per execution to
    // turn in-dependencies into producer tasks. Raw: the unoptimized
    // program's slot table built per run from its producer ids.
    // Optimized: O(1) walks of the prebuilt slot table.
    constexpr int kReps = 50;
    std::uint64_t sink = 0;
    Stopwatch mapWatch;
    for (int rep = 0; rep < kReps; ++rep)
      for (const std::uint32_t p : opt::buildSlotTable(prog).inSlots)
        sink += p;
    const double resolveMap = mapWatch.seconds() / kReps;
    Stopwatch slotWatch;
    for (int rep = 0; rep < kReps; ++rep)
      for (const codegen::Task& t : optimized.tasks)
        for (const std::uint32_t* s = slots.inBegin(t.id);
             s != slots.inEnd(t.id); ++s)
          sink += *s;
    const double resolveSlots = slotWatch.seconds() / kReps;
    volatile std::uint64_t keep = sink; // keep the resolve loops alive
    (void)keep;

    optTable.addRow(
        {spec.name, std::to_string(stats.tasksBefore),
         std::to_string(stats.tasksAfter), std::to_string(stats.edgesBefore),
         std::to_string(stats.edgesAfter),
         bench::fmt(stats.edgeReductionPercent(), 1) + "%",
         bench::fmt(before * 1e3, 3), bench::fmt(after * 1e3, 3),
         bench::fmt(resolveMap * 1e6, 1), bench::fmt(resolveSlots * 1e6, 1)});
  }
  optTable.print();

  std::printf("\nPaper reference (Fig. 10): P1 1.7-1.9, P2 1.3-1.6, "
              "P3 2.4-2.8, P4 1.3-1.4, P5 3.0-3.5, P6 1.6-2.0, P7 1.9-2.1, "
              "P8 3.1-3.6, P9 1.9-2.7, P10 1.3-1.8.\n");
  return 0;
}
