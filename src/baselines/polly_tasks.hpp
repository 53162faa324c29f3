#pragma once

// The Polly-like per-loop-nest auto-parallelizing baseline (what the
// paper compares against as `polly` / `polly_8` in Fig. 11, i.e. Pluto's
// scheduling inside Polly), lowered to a TaskProgram. It runs on the
// tasking backends and is priced by sim::simulate like any pipelined
// program, so the strategies are compared with one methodology:
//
//  * a parallelizable nest becomes up to `threads` chunk tasks over its
//    outermost dependence-free dimension;
//  * a serial nest becomes one task — the paper's key observation is
//    that all gnmm/gnmmt nests (and all of the first benchmark set) fall
//    into this bucket, so Polly gains nothing there;
//  * consecutive nests are separated by a full barrier (every task of
//    nest k depends on every task of nest k-1), which is what Polly's
//    generated code does with one parallel loop per nest.
//
// Polly's tiling is not part of the lowering: the caller prices it with a
// measured tiled per-iteration cost model (see bench_fig11).

#include "codegen/task_program.hpp"
#include "scop/scop.hpp"

namespace pipoly::baselines {

codegen::TaskProgram pollyTaskProgram(const scop::Scop& scop,
                                      unsigned threads);

} // namespace pipoly::baselines
