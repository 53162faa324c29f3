#pragma once

// The programs and detection settings the interval oracle tests run:
// Table 9, the Fig. 11 matmul chains, the reduction grid and the chains of
// kernels/chains.hpp, each under the default options, coarsening 3 and 4,
// FirstMapOnly, relaxed same-nest ordering and reduction mode off; plus a
// seeded generator of small random SCoPs with accumulations and
// non-injective writes.

#include "frontend/frontend.hpp"
#include "kernels/chains.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

#include <functional>
#include <string>
#include <vector>

namespace pipoly::testing {

struct CorpusProgram {
  std::string name;
  std::function<scop::Scop()> build;
  /// Holds an accumulation: reduction mode off then needs
  /// allowNonInjectiveWrites.
  bool reduction = false;
};

/// Table 9 at each size of `t9`, the matmul chains (lengths 2-4) at
/// `mm`, the reduction grid at `grid` and the four chains of
/// kernels/chains.hpp (3 stages) at `chain`.
inline std::vector<CorpusProgram> intervalCorpus(std::vector<pb::Value> t9,
                                                 pb::Value mm, pb::Value grid,
                                                 pb::Value chain) {
  std::vector<CorpusProgram> out;
  for (pb::Value n : t9)
    for (const kernels::ProgramSpec& spec : kernels::table9Programs())
      out.push_back({spec.name + "@" + std::to_string(n), [&spec, n] {
                       return frontend::parseProgram(
                           kernels::renderProgramSource(spec, n));
                     }});
  using V = kernels::MatmulVariant;
  for (std::size_t len : {2u, 3u, 4u})
    for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT})
      out.push_back({kernels::variantName(v) + std::to_string(len),
                     [v, len, mm] { return kernels::matmulChain(v, len, mm); }});
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels())
    out.push_back({spec.name, [&spec, grid] { return spec.build(grid); },
                   true});
  out.push_back({"jacobi", [chain] { return kernels::jacobiChain(3, chain); }});
  out.push_back({"seidel", [chain] { return kernels::seidelChain(3, chain); }});
  out.push_back({"shrinking",
                 [chain] { return kernels::shrinkingChain(3, chain, 2); }});
  out.push_back({"fdtd", [chain] { return kernels::fdtdChain(3, chain); }});
  return out;
}

struct CorpusSetting {
  std::string name;
  pipeline::DetectOptions options;
};

/// The detection settings for one program.
inline std::vector<CorpusSetting> intervalSettings(bool reduction) {
  using pipeline::DetectOptions;
  std::vector<CorpusSetting> out;
  out.push_back({"default", {}});
  for (std::size_t k : {3u, 4u}) {
    DetectOptions o;
    o.coarsening = k;
    out.push_back({indexedName("coarsening", k), o});
  }
  DetectOptions first;
  first.integration = DetectOptions::Integration::FirstMapOnly;
  out.push_back({"first-map-only", first});
  DetectOptions relaxed;
  relaxed.relaxSameNestOrdering = true;
  relaxed.allowNonInjectiveWrites = reduction;
  out.push_back({"relaxed", relaxed});
  DetectOptions off;
  off.reductionMode = DetectOptions::ReductionMode::Off;
  off.allowNonInjectiveWrites = reduction;
  out.push_back({"reduction-off", off});
  return out;
}

/// A small random SCoP of 2-4 nests of depth 1 or 2. A nest writes its
/// own array through the identity, through a projection that drops its
/// inner dimension (a non-injective write: every inner iteration
/// overwrites one element), or as an accumulation A[i] = A[i] + ...;
/// and it reads one or two earlier arrays at random strides and offsets.
inline scop::Scop randomIntervalScop(std::uint64_t seed, bool* nonInjective) {
  SplitMix64 rng(seed);
  const pb::Value n = 3 + static_cast<pb::Value>(rng.nextBelow(5));
  const std::size_t nests = 2 + rng.nextBelow(3);
  scop::ScopBuilder b("interval_fuzz");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k), {4 * n, 4 * n}));
  *nonInjective = false;
  for (std::size_t k = 0; k < nests; ++k) {
    const std::size_t depth = 1 + rng.nextBelow(2);
    auto S = b.statement(indexedName("S", k), depth);
    S.bound(0, 0, n);
    if (depth == 2)
      S.bound(1, 0, n - static_cast<pb::Value>(rng.nextBelow(2)));
    const auto inner = depth == 2 ? S.dim(1) : S.constant(0);
    switch (rng.nextBelow(depth == 2 ? 3 : 2)) {
    case 0:
      S.write(arrays[k], {S.dim(0), inner});
      break;
    case 1:
      S.reduce(arrays[k], {S.dim(0), S.constant(0)}, scop::ReductionOp::Add);
      *nonInjective = *nonInjective || depth == 2;
      break;
    default:
      S.write(arrays[k], {S.dim(0), S.constant(0)});
      *nonInjective = true;
      break;
    }
    const std::size_t reads = k == 0 ? 0 : 1 + rng.nextBelow(2);
    for (std::size_t r = 0; r < reads; ++r) {
      const std::size_t src = arrays[rng.nextBelow(k)];
      const pb::Value c = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      S.read(src, {c * S.dim(0) + static_cast<pb::Value>(rng.nextBelow(2)),
                   inner + static_cast<pb::Value>(rng.nextBelow(2))});
    }
  }
  return b.build();
}

} // namespace pipoly::testing
