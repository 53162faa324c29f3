// Reproduces Figure 11: log2 speed-up over the sequential version for
// chains of (generalized, optionally transposed) matrix multiplications.
// Every strategy is a TaskProgram priced by the one list-scheduling
// simulator (sim::simulate) under costs measured on this host:
//
//   pipeline          — our cross-loop pipelining (simulated 8 hw threads)
//   pipeline_opt      — the same task graph after the optimizer
//   pipeline+parallel — pipelining with relaxed same-nest ordering, so
//                       independent blocks of one nest also run
//                       concurrently (the paper's §7 combination)
//   polly_8           — Polly-like per-nest parallelization + tiling
//                       (baselines::pollyTaskProgram), 8 threads
//   polly             — same with n threads (n = number of loop nests)
//
// The paper's qualitative result: Polly wins on nmm/nmmt (it tiles and
// parallelizes every nest), while on gnmm/gnmmt Polly finds nothing and
// only cross-loop pipelining gains a speed-up.

#include "bench_common.hpp"

#include "baselines/polly_tasks.hpp"
#include "codegen/task_program.hpp"
#include "kernels/matmul.hpp"
#include "opt/optimizer.hpp"

#include <cmath>
#include <cstdio>

namespace {

using namespace pipoly;

std::string kernelLabel(kernels::MatmulVariant v, std::size_t n) {
  using V = kernels::MatmulVariant;
  switch (v) {
  case V::NMM:
    return std::to_string(n) + "mm";
  case V::NMMT:
    return std::to_string(n) + "mmt";
  case V::GNMM:
    return std::to_string(n) + "gmm";
  case V::GNMMT:
    return std::to_string(n) + "gmmt";
  }
  return "?";
}

double log2Speedup(double seq, double time) {
  return std::log2(seq / time);
}

} // namespace

int main() {
  std::printf("== Figure 11: log2 speed-up vs sequential for matrix "
              "multiplication chains ==\n\n");

  const pb::Value n = 64; // matrix dimension (kept modest: the analysis is
                          // explicit; dependence/task shape is N-invariant)
  const double taskOverhead = bench::measureTaskOverhead();

  // Measured per-instance costs on this host: one statement instance is
  // one output element, i.e. one length-n dot product.
  const double dotPlain = kernels::measureDotCost(n, /*transposed=*/false);
  const double dotTrans = kernels::measureDotCost(n, /*transposed=*/true);
  const double tiledPerElement =
      kernels::measureTiledMatmulCostPerElement(n);
  std::printf("measured per-element costs (us): dot=%0.3f  dot^T=%0.3f  "
              "tiled=%0.3f   task overhead=%0.2f us\n\n",
              dotPlain * 1e6, dotTrans * 1e6, tiledPerElement * 1e6,
              taskOverhead * 1e6);

  bench::Table table({"kernel", "pipeline", "pipeline_opt",
                      "pipeline+parallel", "polly_8", "polly", "seq_ms"});

  pipeline::DetectOptions relaxed;
  relaxed.relaxSameNestOrdering = true;

  using V = kernels::MatmulVariant;
  for (std::size_t len : {2u, 3u, 4u}) {
    for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT}) {
      scop::Scop scop = kernels::matmulChain(v, len, n);

      // Sequential & pipeline: the plain (untiled) dot-product cost.
      sim::CostModel model;
      model.taskOverhead = taskOverhead;
      model.iterationCost.assign(scop.numStatements(),
                                 kernels::isTransposed(v) ? dotTrans
                                                          : dotPlain);

      const double seq = sim::sequentialTime(scop, model);
      codegen::TaskProgram prog = codegen::compilePipeline(scop);
      sim::SimResult pipe = sim::simulate(prog, model, sim::SimConfig{8});

      // Same task graph after the optimizer (transitive reduction + chain
      // fusion), dependencies resolved through the interned slot table.
      codegen::TaskProgram optimized = prog;
      opt::optimize(optimized);
      sim::SimResult pipeOpt =
          sim::simulate(optimized, opt::buildSlotTable(optimized), model,
                        sim::SimConfig{8});

      sim::SimResult pipePar =
          sim::simulate(codegen::compilePipeline(scop, relaxed), model,
                        sim::SimConfig{8});

      // Polly: tiled per-element cost where it can optimize (nmm/nmmt);
      // for gnmm/gnmmt Polly leaves the program untouched.
      sim::CostModel pollyModel = model;
      if (!kernels::isGeneralized(v))
        pollyModel.iterationCost.assign(scop.numStatements(),
                                        tiledPerElement);
      const auto lenThreads = static_cast<unsigned>(len);
      const double t8 = sim::simulate(baselines::pollyTaskProgram(scop, 8),
                                      pollyModel, sim::SimConfig{8})
                            .makespan;
      const double tn =
          sim::simulate(baselines::pollyTaskProgram(scop, lenThreads),
                        pollyModel, sim::SimConfig{lenThreads})
              .makespan;

      table.addRow({kernelLabel(v, len),
                    bench::fmt(log2Speedup(seq, pipe.makespan)),
                    bench::fmt(log2Speedup(seq, pipeOpt.makespan)),
                    bench::fmt(log2Speedup(seq, pipePar.makespan)),
                    bench::fmt(log2Speedup(seq, t8)),
                    bench::fmt(log2Speedup(seq, tn)),
                    bench::fmt(seq * 1e3)});
    }
  }
  table.print();

  std::printf("\nPaper reference (Fig. 11, qualitative): polly_8 > pipeline "
              "on nmm/nmmt; polly ~ 0 and pipeline > 0 on gnmm/gnmmt.\n"
              "Extension (§7): pipeline+parallel ~ polly_8 on nmm (both "
              "exploit the nest parallelism) and = pipeline on gnmm.\n");
  return 0;
}
