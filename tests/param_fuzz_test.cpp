// Property tests for the symbolic substrate of the parametric-first
// route: ParamExpr/ParamSet/ParamMap instantiation (presburger/param.hpp,
// pipeline/parametric.hpp) and the product-lattice closed forms
// (pipeline/lattice.hpp). Every check pits a closed form against a brute
// force over materialised points, under randomized coefficients, negative
// offsets, derived parameters and the SBO/arity corner cases. The
// dependence test (scop::dependsOn), which answers cross-nest queries
// without building the flow relation, is checked against that relation
// the same way.

#include "kernels/chains.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/lattice.hpp"
#include "pipeline/parametric.hpp"
#include "presburger/param.hpp"
#include "scop/builder.hpp"
#include "scop/dependences.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace pipoly;
using pipeline::BoundaryLattice;
using pipeline::DimProgression;

// --- ParamExpr ---------------------------------------------------------

TEST(ParamFuzz, ExprArithmeticMatchesDirectEvaluation) {
  SplitMix64 rng(0x5bd1e995u);
  const std::vector<std::string> names = {"N", "M", "K"};
  for (int iter = 0; iter < 300; ++iter) {
    // Model: coefficient per parameter plus a constant, mutated by the
    // same random +, -, k* walk the ParamExpr takes.
    std::map<std::string, pb::Value> model;
    pb::Value modelConst =
        static_cast<pb::Value>(rng.nextInRange(-20, 20));
    pb::ParamExpr e(modelConst);
    const std::size_t steps = 1 + rng.nextBelow(6);
    for (std::size_t s = 0; s < steps; ++s) {
      const std::uint64_t op = rng.nextBelow(3);
      if (op == 0) {
        const std::string& p = names[rng.nextBelow(names.size())];
        const pb::Value c = static_cast<pb::Value>(rng.nextInRange(-5, 5));
        e = e + pb::ParamExpr::param(p, c);
        model[p] += c;
      } else if (op == 1) {
        const std::string& p = names[rng.nextBelow(names.size())];
        const pb::Value c = static_cast<pb::Value>(rng.nextInRange(-5, 5));
        const pb::Value k = static_cast<pb::Value>(rng.nextInRange(-7, 7));
        e = e - (pb::ParamExpr::param(p, c) + pb::ParamExpr(k));
        model[p] -= c;
        modelConst -= k;
      } else {
        const pb::Value k = static_cast<pb::Value>(rng.nextInRange(-3, 3));
        e = k * e;
        for (auto& [name, c] : model)
          c *= k;
        modelConst *= k;
      }
    }
    pb::ParamBindings bindings;
    for (const std::string& p : names)
      bindings[p] = static_cast<pb::Value>(rng.nextInRange(-15, 15));
    pb::Value expected = modelConst;
    for (const auto& [name, c] : model)
      expected += c * bindings[name];
    EXPECT_EQ(e.evaluate(bindings), expected) << e.toString();
  }
}

TEST(ParamFuzz, ExprCornerCases) {
  EXPECT_TRUE(pb::ParamExpr(7).isConstant());
  EXPECT_TRUE(pb::ParamExpr::param("N", 0).isConstant()); // zero coeff drops
  const pb::ParamExpr n = pb::ParamExpr::param("N");
  EXPECT_FALSE(n.isConstant());
  EXPECT_TRUE((n - n).isConstant()); // cancellation
  EXPECT_EQ((n - n).evaluate({{"N", 42}}), 0);
  EXPECT_EQ((0 * n).evaluate({{"N", 42}}), 0);
}

// --- ParamSet ----------------------------------------------------------

TEST(ParamFuzz, SetPointsMatchBruteForceUnderDerivedParameters) {
  SplitMix64 rng(0xa0761d6478bd642fULL);
  for (int iter = 0; iter < 120; ++iter) {
    const std::size_t dims = 1 + rng.nextBelow(2);
    pb::ParamSet set(pb::Space("S", dims));

    // Bounds are lo_d <= x < hi_d with lo a (possibly negative) constant
    // and hi = N, M + c, or a constant — M is the derived parameter bound
    // to N/2 at instantiation (division never exists symbolically).
    std::vector<pb::Value> lo(dims), hi(dims);
    const pb::Value n = static_cast<pb::Value>(rng.nextInRange(4, 24));
    const pb::ParamBindings bindings = {{"N", n}, {"M", n / 2}};
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = static_cast<pb::Value>(rng.nextInRange(-4, 3));
      const std::uint64_t kind = rng.nextBelow(3);
      pb::ParamExpr hiExpr(0);
      if (kind == 0) {
        hiExpr = pb::ParamExpr::param("N");
      } else if (kind == 1) {
        hiExpr = pb::ParamExpr::param("M") +
                 pb::ParamExpr(static_cast<pb::Value>(rng.nextInRange(0, 3)));
      } else {
        hiExpr = pb::ParamExpr(lo[d] +
                               static_cast<pb::Value>(rng.nextInRange(0, 6)));
      }
      hi[d] = hiExpr.evaluate(bindings);
      set.bound(d, pb::ParamExpr(lo[d]), hiExpr);
    }

    const pb::IntTupleSet got = set.points(bindings);

    std::vector<pb::Tuple> expected;
    if (dims == 1) {
      for (pb::Value x = lo[0]; x < hi[0]; ++x)
        expected.push_back({x});
    } else {
      for (pb::Value x = lo[0]; x < hi[0]; ++x)
        for (pb::Value y = lo[1]; y < hi[1]; ++y)
          expected.push_back({x, y});
    }
    EXPECT_TRUE(got == pb::IntTupleSet(pb::Space("S", dims), expected))
        << "iter " << iter << ": " << set.toString();
  }
}

// --- ParamMap via the closed-form pipeline map --------------------------

TEST(ParamFuzz, ParametricPipelineMapMatchesBruteForcePairEnumeration) {
  SplitMix64 rng(0xc2b2ae3d27d4eb4fULL);
  for (int iter = 0; iter < 150; ++iter) {
    // Depth up to 3: the instantiated map concatenates pairs to width 6,
    // past Tuple's inline capacity of 4, so the SBO spill path runs too.
    const std::size_t depth = 1 + rng.nextBelow(3);
    const pb::Value n = static_cast<pb::Value>(rng.nextInRange(3, 12));
    const pb::ParamBindings bindings = {{"N", n}};

    pipeline::ParamRectStatement src{"S", {}};
    pipeline::ParamRectStatement tgt{"T", {}};
    pipeline::SeparableRead read;
    std::vector<pb::Value> srcLo(depth), srcHi(depth), tgtLo(depth),
        tgtHi(depth), off(depth);
    for (std::size_t d = 0; d < depth; ++d) {
      srcLo[d] = static_cast<pb::Value>(rng.nextInRange(-2, 2));
      tgtLo[d] = static_cast<pb::Value>(rng.nextInRange(-2, 2));
      // Upper bounds mix constants and N so instantiation exercises the
      // parameter-affine path.
      const bool srcParamHi = rng.nextBelow(2) == 0;
      const bool tgtParamHi = rng.nextBelow(2) == 0;
      const pb::ParamExpr srcHiE =
          srcParamHi ? pb::ParamExpr::param("N") +
                           pb::ParamExpr(static_cast<pb::Value>(
                               rng.nextInRange(-1, 2)))
                     : pb::ParamExpr(srcLo[d] + static_cast<pb::Value>(
                                                    rng.nextInRange(1, 9)));
      const pb::ParamExpr tgtHiE =
          tgtParamHi ? pb::ParamExpr::param("N")
                     : pb::ParamExpr(tgtLo[d] + static_cast<pb::Value>(
                                                    rng.nextInRange(1, 9)));
      srcHi[d] = srcHiE.evaluate(bindings);
      tgtHi[d] = tgtHiE.evaluate(bindings);
      src.bounds.push_back({pb::ParamExpr(srcLo[d]), srcHiE});
      tgt.bounds.push_back({pb::ParamExpr(tgtLo[d]), tgtHiE});

      read.coeffs.push_back(static_cast<pb::Value>(rng.nextInRange(1, 3)));
      // Offsets: constant or parameter-affine (cN*N + c), may be negative.
      if (rng.nextBelow(3) == 0) {
        const pb::Value cn = static_cast<pb::Value>(rng.nextInRange(-1, 1));
        const pb::Value c = static_cast<pb::Value>(rng.nextInRange(-2, 2));
        off[d] = cn * n + c;
        read.offsets.push_back(pb::ParamExpr::param("N", cn) +
                               pb::ParamExpr(c));
      } else {
        off[d] = static_cast<pb::Value>(rng.nextInRange(-4, 4));
        read.offsets.push_back(pb::ParamExpr(off[d]));
      }
    }

    const pb::ParamMap pm = pipeline::parametricPipelineMap(src, tgt, read);
    const pb::IntMap got = pm.instantiate(bindings);

    // Brute force: every target point j whose read c⊙j+o lands inside the
    // source rectangle contributes the pair (c⊙j+o, j).
    std::vector<pb::IntMap::Pair> expected;
    std::vector<pb::Value> j(depth);
    const auto emit = [&](const auto& self, std::size_t d) -> void {
      if (d == depth) {
        std::vector<pb::Value> i(depth);
        for (std::size_t k = 0; k < depth; ++k) {
          i[k] = read.coeffs[k] * j[k] + off[k];
          if (i[k] < srcLo[k] || i[k] >= srcHi[k])
            return;
        }
        expected.push_back({pb::Tuple(i), pb::Tuple(j)});
        return;
      }
      for (j[d] = tgtLo[d]; j[d] < tgtHi[d]; ++j[d])
        self(self, d + 1);
    };
    emit(emit, 0);

    const pb::IntMap want(got.domainSpace(), got.rangeSpace(),
                          std::move(expected));
    EXPECT_TRUE(got == want)
        << "iter " << iter << " depth " << depth << " N=" << n << "\n got "
        << got.toString() << "\nwant " << want.toString();
  }
}

// --- DimProgression -----------------------------------------------------

std::vector<pb::Value> materialize(const DimProgression& p) {
  std::vector<pb::Value> v;
  for (pb::Value k = 0; k < p.count; ++k)
    v.push_back(p.first + p.stride * k);
  return v;
}

TEST(ParamFuzz, ProgressionQueriesMatchMaterializedPoints) {
  SplitMix64 rng(0x165667b19e3779f9ULL);
  for (int iter = 0; iter < 400; ++iter) {
    DimProgression p;
    p.first = static_cast<pb::Value>(rng.nextInRange(-12, 12));
    p.stride = static_cast<pb::Value>(rng.nextInRange(1, 5));
    p.count = static_cast<pb::Value>(rng.nextInRange(0, 14));
    const std::vector<pb::Value> pts = materialize(p);

    EXPECT_EQ(p.empty(), pts.empty());
    if (!pts.empty()) {
      EXPECT_EQ(p.last(), pts.back());
    }

    for (pb::Value v = p.first - 8; v <= p.first + p.stride * p.count + 8;
         ++v) {
      EXPECT_EQ(p.contains(v),
                std::find(pts.begin(), pts.end(), v) != pts.end())
          << "contains(" << v << ")";
      const auto ceilIt = std::lower_bound(pts.begin(), pts.end(), v);
      const auto got = p.ceil(v);
      if (ceilIt == pts.end()) {
        EXPECT_FALSE(got.has_value()) << "ceil(" << v << ")";
      } else {
        ASSERT_TRUE(got.has_value()) << "ceil(" << v << ")";
        EXPECT_EQ(*got, *ceilIt) << "ceil(" << v << ")";
      }
      const auto strictIt = std::upper_bound(pts.begin(), pts.end(), v);
      const auto gotStrict = p.ceilStrict(v);
      if (strictIt == pts.end()) {
        EXPECT_FALSE(gotStrict.has_value()) << "ceilStrict(" << v << ")";
      } else {
        ASSERT_TRUE(gotStrict.has_value()) << "ceilStrict(" << v << ")";
        EXPECT_EQ(*gotStrict, *strictIt) << "ceilStrict(" << v << ")";
      }
    }
  }
}

TEST(ParamFuzz, ProgressionIntersectionMatchesSetIntersection) {
  SplitMix64 rng(0x27d4eb2f165667c5ULL);
  for (int iter = 0; iter < 400; ++iter) {
    DimProgression a, b;
    a.first = static_cast<pb::Value>(rng.nextInRange(-10, 10));
    a.stride = static_cast<pb::Value>(rng.nextInRange(1, 6));
    a.count = static_cast<pb::Value>(rng.nextInRange(0, 16));
    b.first = static_cast<pb::Value>(rng.nextInRange(-10, 10));
    b.stride = static_cast<pb::Value>(rng.nextInRange(1, 6));
    b.count = static_cast<pb::Value>(rng.nextInRange(0, 16));

    const std::vector<pb::Value> pa = materialize(a), pbv = materialize(b);
    std::vector<pb::Value> want;
    std::set_intersection(pa.begin(), pa.end(), pbv.begin(), pbv.end(),
                          std::back_inserter(want));
    EXPECT_EQ(materialize(pipeline::intersect(a, b)), want)
        << "a={" << a.first << "," << a.stride << "," << a.count << "} b={"
        << b.first << "," << b.stride << "," << b.count << "}";
  }
}

// --- BoundaryLattice ----------------------------------------------------

BoundaryLattice randomLattice(SplitMix64& rng, std::size_t dims) {
  BoundaryLattice lat;
  for (std::size_t d = 0; d < dims; ++d) {
    DimProgression p;
    p.first = static_cast<pb::Value>(rng.nextInRange(-6, 6));
    p.stride = static_cast<pb::Value>(rng.nextInRange(1, 4));
    p.count = static_cast<pb::Value>(rng.nextInRange(1, 7));
    lat.dims.push_back(p);
  }
  return lat;
}

std::vector<pb::Tuple> materialize(const BoundaryLattice& lat) {
  std::vector<pb::Tuple> out;
  std::vector<pb::Value> x(lat.arity());
  const auto rec = [&](const auto& self, std::size_t d) -> void {
    if (d == lat.arity()) {
      out.push_back(pb::Tuple(x));
      return;
    }
    for (pb::Value k = 0; k < lat.dims[d].count; ++k) {
      x[d] = lat.dims[d].first + lat.dims[d].stride * k;
      self(self, d + 1);
    }
  };
  rec(rec, 0);
  std::sort(out.begin(), out.end());
  return out;
}

pb::Tuple randomProbe(SplitMix64& rng, std::size_t dims) {
  std::vector<pb::Value> x(dims);
  for (std::size_t d = 0; d < dims; ++d)
    x[d] = static_cast<pb::Value>(rng.nextInRange(-10, 20));
  return pb::Tuple(x);
}

TEST(ParamFuzz, LatticeQueriesMatchMaterializedPoints) {
  SplitMix64 rng(0x85ebca6b2f3a9defULL);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t dims = 1 + rng.nextBelow(3);
    const BoundaryLattice lat = randomLattice(rng, dims);
    const std::vector<pb::Tuple> pts = materialize(lat);

    ASSERT_FALSE(pts.empty());
    EXPECT_EQ(lat.size(), static_cast<pb::Value>(pts.size()));
    EXPECT_EQ(lat.lexmin(), pts.front());
    EXPECT_EQ(lat.lexmax(), pts.back());
    EXPECT_TRUE(lat.points(pb::Space("L", dims)) ==
                pb::IntTupleSet(pb::Space("L", dims), pts));

    for (int probe = 0; probe < 40; ++probe) {
      // Half the probes are lattice points or their neighbours, so the
      // exact-hit and just-past-boundary branches of lexCeil both run.
      pb::Tuple x = probe % 2 == 0 ? randomProbe(rng, dims)
                                   : pts[rng.nextBelow(pts.size())];
      if (probe % 4 == 1 && x.size() > 0)
        x[dims - 1] += 1;
      EXPECT_EQ(lat.contains(x),
                std::binary_search(pts.begin(), pts.end(), x))
          << x.toString();
      const auto it = std::lower_bound(pts.begin(), pts.end(), x);
      const auto got = lat.lexCeil(x);
      if (it == pts.end()) {
        EXPECT_FALSE(got.has_value()) << x.toString();
      } else {
        ASSERT_TRUE(got.has_value()) << x.toString();
        EXPECT_EQ(*got, *it) << x.toString();
      }
    }
  }
}

TEST(ParamFuzz, LatticeUnionsMatchBruteForceOverMaterializedPoints) {
  SplitMix64 rng(0x94d049bb133111ebULL);
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t dims = 1 + rng.nextBelow(3);
    const std::size_t k = 2 + rng.nextBelow(2);
    std::vector<BoundaryLattice> lats;
    std::vector<pb::Tuple> all;
    for (std::size_t i = 0; i < k; ++i) {
      lats.push_back(randomLattice(rng, dims));
      const std::vector<pb::Tuple> pts = materialize(lats.back());
      all.insert(all.end(), pts.begin(), pts.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());

    EXPECT_EQ(pipeline::unionSize(lats), static_cast<pb::Value>(all.size()))
        << "iter " << iter;

    for (int probe = 0; probe < 40; ++probe) {
      pb::Tuple x = probe % 2 == 0 ? randomProbe(rng, dims)
                                   : all[rng.nextBelow(all.size())];
      EXPECT_EQ(pipeline::unionContains(lats, x),
                std::binary_search(all.begin(), all.end(), x))
          << x.toString();
      const auto it = std::lower_bound(all.begin(), all.end(), x);
      const auto got = pipeline::unionLexCeil(lats, x);
      if (it == all.end()) {
        EXPECT_FALSE(got.has_value()) << x.toString();
      } else {
        ASSERT_TRUE(got.has_value()) << x.toString();
        EXPECT_EQ(*got, *it) << x.toString();
      }
    }

    // Pairwise intersections against set intersection (feeds the
    // inclusion-exclusion terms directly).
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t l = i + 1; l < k; ++l) {
        const std::vector<pb::Tuple> pi = materialize(lats[i]);
        const std::vector<pb::Tuple> pl = materialize(lats[l]);
        std::vector<pb::Tuple> want;
        std::set_intersection(pi.begin(), pi.end(), pl.begin(), pl.end(),
                              std::back_inserter(want));
        EXPECT_EQ(materialize(pipeline::intersect(lats[i], lats[l])), want)
            << "iter " << iter;
      }
  }
}

TEST(ParamFuzz, LatticeArityZeroHoldsExactlyTheEmptyTuple) {
  const BoundaryLattice lat; // zero dims
  EXPECT_FALSE(lat.empty());
  EXPECT_EQ(lat.size(), 1);
  EXPECT_TRUE(lat.contains(pb::Tuple()));
  EXPECT_EQ(lat.lexmin(), pb::Tuple());
  EXPECT_EQ(lat.lexmax(), pb::Tuple());
  const auto ceil = lat.lexCeil(pb::Tuple());
  ASSERT_TRUE(ceil.has_value());
  EXPECT_EQ(*ceil, pb::Tuple());
  EXPECT_EQ(pipeline::unionSize({lat, lat}), 1);
  EXPECT_TRUE(pipeline::unionContains({lat}, pb::Tuple()));
}

TEST(ParamFuzz, LatticeWidthFivePastTupleInlineCapacity) {
  // Tuples spill to the heap past arity 4; the lattice closed forms must
  // not care.
  SplitMix64 rng(0xd6e8feb86659fd93ULL);
  for (int iter = 0; iter < 40; ++iter) {
    BoundaryLattice lat;
    for (std::size_t d = 0; d < 5; ++d) {
      DimProgression p;
      p.first = static_cast<pb::Value>(rng.nextInRange(-3, 3));
      p.stride = static_cast<pb::Value>(rng.nextInRange(1, 3));
      p.count = static_cast<pb::Value>(rng.nextInRange(1, 3));
      lat.dims.push_back(p);
    }
    const std::vector<pb::Tuple> pts = materialize(lat);
    EXPECT_EQ(lat.size(), static_cast<pb::Value>(pts.size()));
    EXPECT_EQ(lat.lexmin(), pts.front());
    EXPECT_EQ(lat.lexmax(), pts.back());
    for (int probe = 0; probe < 20; ++probe) {
      const pb::Tuple x = probe % 2 == 0 ? randomProbe(rng, 5)
                                         : pts[rng.nextBelow(pts.size())];
      const auto it = std::lower_bound(pts.begin(), pts.end(), x);
      const auto got = lat.lexCeil(x);
      if (it == pts.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, *it);
      }
    }
  }
}

// --- Dependence test vs the flow relation -----------------------------

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
