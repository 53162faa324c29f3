// Property tests for the dependence test scop::dependsOn, which answers
// cross-nest queries without building the flow relation: on the kernel
// suites and on random programs whose reads often miss the written
// elements, its verdict must equal whether the flow relation is empty.
// The suite name ParamFuzz is kept so the test ids stay stable.

#include "kernels/chains.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "scop/builder.hpp"
#include "scop/dependences.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pipoly;

/// Tally of the pairs one dependence check saw.
struct DependenceCensus {
  std::size_t dependent = 0;
  /// Independent although the source writes an array the target reads:
  /// the case only the element-level test can decide.
  std::size_t disjointShared = 0;
};

/// For every s < t, dependsOn must answer whether the flow relation
/// from s to t is non-empty.
void expectDependsOnMatchesFlowRelation(const scop::Scop& scop,
                                        const std::string& what,
                                        DependenceCensus& census) {
  for (std::size_t t = 0; t < scop.numStatements(); ++t)
    for (std::size_t s = 0; s < t; ++s) {
      const bool want = !scop::flowDependences(scop, s, t).empty();
      EXPECT_EQ(scop::dependsOn(scop, t, s), want)
          << what << " S" << s << "->S" << t;
      const std::vector<std::size_t> written = scop.arraysWrittenBy(s);
      bool shared = false;
      for (std::size_t a : scop.arraysReadBy(t))
        shared = shared ||
                 std::find(written.begin(), written.end(), a) != written.end();
      if (want)
        ++census.dependent;
      else if (shared)
        ++census.disjointShared;
    }
}

/// A random program of 2-4 nests of one depth (1 or 2) over small
/// rectangles, some of them empty. Nest k writes A_k through c*x + o,
/// and reads earlier arrays through subscripts with coefficients 0-3
/// and offsets up to 8, so reads often miss the written elements
/// entirely; some reads sweep an aux dimension whose extent may be 0.
scop::Scop randomDependenceScop(SplitMix64& rng, std::size_t tag) {
  const std::size_t nests = 2 + rng.nextBelow(3);
  const std::size_t depth = 1 + rng.nextBelow(2);
  struct Sub {
    std::vector<pb::Value> c, o;
    pb::Value auxExtent = -1; // >= 0: the last dim adds aux in [0, extent)
  };
  struct Nest {
    std::vector<pb::Value> lo, hi;
    Sub write;
    std::vector<std::pair<std::size_t, Sub>> reads; // (source nest, sub)
  };
  const auto randomSub = [&](pb::Value maxC, pb::Value maxO) {
    Sub sub;
    for (std::size_t d = 0; d < depth; ++d) {
      sub.c.push_back(static_cast<pb::Value>(rng.nextInRange(0, maxC)));
      sub.o.push_back(static_cast<pb::Value>(rng.nextInRange(0, maxO)));
    }
    return sub;
  };
  std::vector<Nest> nest(nests);
  for (std::size_t k = 0; k < nests; ++k) {
    for (std::size_t d = 0; d < depth; ++d) {
      const pb::Value lo = static_cast<pb::Value>(rng.nextBelow(3));
      const std::uint64_t extent =
          rng.nextBelow(10) == 0 ? 0 : 1 + rng.nextBelow(7);
      nest[k].lo.push_back(lo);
      nest[k].hi.push_back(lo + static_cast<pb::Value>(extent));
    }
    nest[k].write = randomSub(2, 3);
    for (std::size_t d = 0; d < depth; ++d)
      nest[k].write.c[d] = std::max<pb::Value>(1, nest[k].write.c[d]);
    for (std::size_t s = 0; s < k; ++s)
      for (std::uint64_t r = rng.nextBelow(3); r-- > 0;) {
        Sub sub = randomSub(3, 8);
        if (rng.nextBelow(4) == 0)
          sub.auxExtent = static_cast<pb::Value>(rng.nextBelow(4));
        nest[k].reads.emplace_back(s, std::move(sub));
      }
  }

  // Array shapes: one past the largest subscript of any access.
  std::vector<std::vector<pb::Value>> shapes(nests,
                                             std::vector<pb::Value>(depth, 1));
  const auto cover = [&](std::size_t array, const Nest& at, const Sub& sub) {
    for (std::size_t d = 0; d < depth; ++d) {
      pb::Value top = sub.c[d] * std::max<pb::Value>(at.hi[d] - 1, 0) +
                      sub.o[d];
      if (d + 1 == depth && sub.auxExtent > 0)
        top += sub.auxExtent - 1;
      shapes[array][d] = std::max(shapes[array][d], top + 1);
    }
  };
  for (std::size_t k = 0; k < nests; ++k) {
    cover(k, nest[k], nest[k].write);
    for (const auto& [s, sub] : nest[k].reads)
      cover(s, nest[k], sub);
  }

  scop::ScopBuilder b(indexedName("deps", tag));
  for (std::size_t k = 0; k < nests; ++k)
    b.array(indexedName("A", k), shapes[k]);
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement(indexedName("S", k), depth);
    for (std::size_t d = 0; d < depth; ++d)
      S.bound(d, nest[k].lo[d], nest[k].hi[d]);
    const auto subscripts = [&](const Sub& sub) {
      const std::size_t aux = sub.auxExtent >= 0 ? 1 : 0;
      std::vector<pb::AffineExpr> out;
      for (std::size_t d = 0; d < depth; ++d) {
        pb::AffineExpr e = sub.c[d] * S.rangeDim(d, aux) + sub.o[d];
        if (aux == 1 && d + 1 == depth)
          e = e + S.rangeAux(0, aux);
        out.push_back(e);
      }
      return out;
    };
    S.write(k, subscripts(nest[k].write));
    for (const auto& [s, sub] : nest[k].reads) {
      if (sub.auxExtent >= 0)
        S.readRange(s, subscripts(sub), {sub.auxExtent});
      else
        S.read(s, subscripts(sub));
    }
  }
  return b.build();
}

TEST(ParamFuzz, DependsOnAgreesWithTheFlowRelationOnTheKernelSuites) {
  DependenceCensus census;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    for (pb::Value n : {8, 16})
      expectDependsOnMatchesFlowRelation(kernels::buildProgram(spec, n),
                                         spec.name, census);
  for (kernels::MatmulVariant v :
       {kernels::MatmulVariant::NMM, kernels::MatmulVariant::NMMT,
        kernels::MatmulVariant::GNMM, kernels::MatmulVariant::GNMMT})
    expectDependsOnMatchesFlowRelation(kernels::matmulChain(v, 3, 6),
                                       kernels::variantName(v), census);
  expectDependsOnMatchesFlowRelation(kernels::jacobiChain(3, 10), "jacobi",
                                     census);
  expectDependsOnMatchesFlowRelation(kernels::seidelChain(3, 10), "seidel",
                                     census);
  expectDependsOnMatchesFlowRelation(kernels::shrinkingChain(4, 12, 2),
                                     "shrinking", census);
  expectDependsOnMatchesFlowRelation(kernels::fdtdChain(3, 10), "fdtd",
                                     census);
  for (const kernels::ReductionKernelSpec& k : kernels::reductionKernels())
    expectDependsOnMatchesFlowRelation(k.build(16), k.name, census);
  EXPECT_GT(census.dependent, 50u);
}

TEST(ParamFuzz, DependsOnAgreesWithTheFlowRelationOnRandomPrograms) {
  SplitMix64 rng(0x2545f4914f6cdd1dULL);
  DependenceCensus census;
  for (std::size_t iter = 0; iter < 300; ++iter)
    expectDependsOnMatchesFlowRelation(randomDependenceScop(rng, iter),
                                       "iter " + std::to_string(iter),
                                       census);
  // Both verdicts must be common, including "independent" on pairs that
  // share an array — the answer only the element-level test gives.
  EXPECT_GT(census.dependent, 100u);
  EXPECT_GT(census.disjointShared, 200u);
}

} // namespace
