// Differential property tests for the flat-storage presburger core: every
// rewritten IntTupleSet / IntMap operation is checked against a naive
// reference implementation on randomized inputs (seeded SplitMix64, so
// failures replay deterministically). Arities sweep 0..5 to cover the
// empty-tuple edge cases and both sides of Tuple's inline/heap boundary
// (kInlineCapacity == 4).

#include "presburger/map.hpp"
#include "presburger/rows.hpp"
#include "presburger/set.hpp"
#include "support/rng.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace pipoly::pb {
namespace {

using Pts = std::vector<Tuple>;
using Pairs = std::vector<std::pair<Tuple, Tuple>>;

Pts sortedUnique(Pts v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

Pairs sortedUnique(Pairs v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

Pts toVec(const IntTupleSet& s) {
  Pts out;
  for (TupleView t : s.points())
    out.emplace_back(t);
  return out;
}

Pairs toVec(const IntMap& m) {
  Pairs out;
  for (PairView p : m.pairs())
    out.push_back(p);
  return out;
}

Tuple randomTuple(SplitMix64& rng, std::size_t arity, Value lo, Value hi) {
  std::vector<Value> vals(arity);
  for (Value& v : vals)
    v = rng.nextInRange(lo, hi);
  return Tuple(vals);
}

IntTupleSet randomSet(SplitMix64& rng, const Space& space, std::size_t count,
                      Value lo, Value hi) {
  Pts pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    pts.push_back(randomTuple(rng, space.arity(), lo, hi));
  return IntTupleSet(space, std::move(pts));
}

IntMap randomMap(SplitMix64& rng, const Space& in, const Space& out,
                 std::size_t count, Value lo, Value hi) {
  Pairs pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    pairs.emplace_back(randomTuple(rng, in.arity(), lo, hi),
                       randomTuple(rng, out.arity(), lo, hi));
  return IntMap(in, out, std::move(pairs));
}

// ---- naive reference implementations ------------------------------------

Pts refUnite(const Pts& a, const Pts& b) {
  Pts out = a;
  out.insert(out.end(), b.begin(), b.end());
  return sortedUnique(std::move(out));
}

Pts refIntersect(const Pts& a, const Pts& b) {
  Pts out;
  for (const Tuple& t : a)
    if (std::find(b.begin(), b.end(), t) != b.end())
      out.push_back(t);
  return sortedUnique(std::move(out));
}

Pts refSubtract(const Pts& a, const Pts& b) {
  Pts out;
  for (const Tuple& t : a)
    if (std::find(b.begin(), b.end(), t) == b.end())
      out.push_back(t);
  return sortedUnique(std::move(out));
}

Pairs refCompose(const Pairs& outer, const Pairs& inner) {
  Pairs out;
  for (const auto& [a, b] : inner)
    for (const auto& [b2, c] : outer)
      if (b == b2)
        out.emplace_back(a, c);
  return sortedUnique(std::move(out));
}

Pairs refPerDomain(const Pairs& pairs, bool wantMax) {
  std::map<Tuple, Tuple> best;
  for (const auto& [in, out] : pairs) {
    auto [it, fresh] = best.try_emplace(in, out);
    if (!fresh && (wantMax ? it->second < out : out < it->second))
      it->second = out;
  }
  Pairs out(best.begin(), best.end());
  return out;
}

// --------------------------------------------------------------------------

class FlatSetDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlatSetDifferential, MatchesNaiveReference) {
  const std::size_t arity = GetParam();
  SplitMix64 rng(0x5eed0000 + arity);
  const Space space("S", arity);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t na = rng.nextBelow(24);
    const std::size_t nb = rng.nextBelow(24);
    const IntTupleSet a = randomSet(rng, space, na, -3, 3);
    const IntTupleSet b = randomSet(rng, space, nb, -3, 3);
    const Pts va = toVec(a), vb = toVec(b);

    // The stored points are sorted, unique, and round-trip exactly.
    EXPECT_TRUE(std::is_sorted(va.begin(), va.end()));
    EXPECT_EQ(va.size(), a.size());

    EXPECT_EQ(toVec(a.unite(b)), refUnite(va, vb));
    EXPECT_EQ(toVec(a.intersect(b)), refIntersect(va, vb));
    EXPECT_EQ(toVec(subtract(a, b)), refSubtract(va, vb));
    EXPECT_EQ(isSubsetOf(a, b), refSubtract(va, vb).empty());

    for (const Tuple& t : vb)
      EXPECT_EQ(a.contains(t),
                std::find(va.begin(), va.end(), t) != va.end());

    if (!a.empty()) {
      EXPECT_EQ(lexmin(a), va.front());
      EXPECT_EQ(a.lexmax(), va.back());
    }

    if (arity > 0) {
      const auto keep = [](const Tuple& t) { return t[0] % 2 == 0; };
      Pts kept;
      for (const Tuple& t : va)
        if (keep(t))
          kept.push_back(t);
      EXPECT_EQ(toVec(filter(a, keep)), kept);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, FlatSetDifferential,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

TEST(FlatSet, RectangleMatchesNestedLoops) {
  const Space space("R", 3);
  const IntTupleSet r = rectangle(space, {2, 3, 2});
  Pts expect;
  for (Value i = 0; i < 2; ++i)
    for (Value j = 0; j < 3; ++j)
      for (Value k = 0; k < 2; ++k)
        expect.push_back(Tuple{i, j, k});
  EXPECT_EQ(toVec(r), expect);
  EXPECT_TRUE(rectangle(space, {2, 0, 5}).empty());
}

TEST(FlatSet, DerivedSetsShareTheRowBuffer) {
  const Space space("S", 2);
  SplitMix64 rng(7);
  const IntTupleSet a = randomSet(rng, space, 20, 0, 5);
  const IntTupleSet empty(space);
  // Content-identical derivations reuse the storage, not a deep copy.
  EXPECT_EQ(&a.unite(empty).rowData(), &a.rowData());
  EXPECT_EQ(&a.intersect(a).rowData(), &a.rowData());
  const IntTupleSet copy = a; // plain copies share too
  EXPECT_EQ(&copy.rowData(), &a.rowData());
}

TEST(FlatSet, RangesOutliveTheirSet) {
  TupleRange pts;
  {
    const Space space("S", 2);
    SplitMix64 rng(9);
    pts = randomSet(rng, space, 10, 0, 9).points();
  }
  // The range retains the buffer after the temporary set died.
  ASSERT_EQ(pts.size(), std::size_t{10});
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
}

class FlatMapDifferential
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FlatMapDifferential, MatchesNaiveReference) {
  const auto [inArity, outArity] = GetParam();
  SplitMix64 rng(0xabcd00 + inArity * 16 + outArity);
  const Space in("I", inArity), out("O", outArity);
  for (int trial = 0; trial < 30; ++trial) {
    const IntMap m = randomMap(rng, in, out, rng.nextBelow(28), -2, 2);
    const IntMap n = randomMap(rng, in, out, rng.nextBelow(28), -2, 2);
    const Pairs vm = toVec(m), vn = toVec(n);

    EXPECT_TRUE(std::is_sorted(vm.begin(), vm.end()));
    EXPECT_EQ(vm.size(), m.size());

    // domain / range / inverse
    {
      Pts doms, rans;
      Pairs inv;
      for (const auto& [x, y] : vm) {
        doms.push_back(x);
        rans.push_back(y);
        inv.emplace_back(y, x);
      }
      EXPECT_EQ(toVec(m.domain()), sortedUnique(std::move(doms)));
      EXPECT_EQ(toVec(m.range()), sortedUnique(std::move(rans)));
      EXPECT_EQ(toVec(m.inverse()), sortedUnique(std::move(inv)));
    }

    // set algebra on pairs
    {
      Pairs uni = vm;
      uni.insert(uni.end(), vn.begin(), vn.end());
      EXPECT_EQ(toVec(m.unite(n)), sortedUnique(std::move(uni)));
      Pairs inter, diff;
      for (const auto& p : vm) {
        if (std::find(vn.begin(), vn.end(), p) != vn.end())
          inter.push_back(p);
        else
          diff.push_back(p);
      }
      EXPECT_EQ(toVec(m.intersect(n)), inter);
      EXPECT_EQ(toVec(subtract(m, n)), diff);
      EXPECT_EQ(isSubsetOf(m, n), diff.empty());
    }

    // point queries
    for (const auto& [x, y] : vn)
      EXPECT_EQ(m.contains(x, y),
                std::find(vm.begin(), vm.end(), std::make_pair(x, y)) !=
                    vm.end());
    if (!vm.empty()) {
      const Tuple& probe = vm[rng.nextBelow(vm.size())].first;
      Pts expect;
      for (const auto& [x, y] : vm)
        if (x == probe)
          expect.push_back(y);
      EXPECT_EQ(imagesOf(m, probe), sortedUnique(std::move(expect)));
    }

    // per-domain extrema
    EXPECT_EQ(toVec(m.lexmaxPerDomain()), refPerDomain(vm, true));
    EXPECT_EQ(toVec(lexminPerDomain(m)), refPerDomain(vm, false));

    // single-valuedness / injectivity
    {
      std::set<Tuple> ins, outs;
      bool sv = true, inj = true;
      for (const auto& [x, y] : vm) {
        sv = sv && ins.insert(x).second;
        inj = inj && outs.insert(y).second;
      }
      EXPECT_EQ(isSingleValued(m), sv);
      EXPECT_EQ(m.isInjective(), inj);
    }

    // compose (outer space O, inner I -> I maps through a mid map)
    {
      const IntMap mid = randomMap(rng, out, in, rng.nextBelow(20), -2, 2);
      EXPECT_EQ(toVec(mid.compose(m)), refCompose(toVec(mid), vm));
    }

  }
}

INSTANTIATE_TEST_SUITE_P(
    Arities, FlatMapDifferential,
    ::testing::Values(std::make_pair(std::size_t{0}, std::size_t{0}),
                      std::make_pair(std::size_t{0}, std::size_t{2}),
                      std::make_pair(std::size_t{1}, std::size_t{0}),
                      std::make_pair(std::size_t{1}, std::size_t{1}),
                      std::make_pair(std::size_t{2}, std::size_t{2}),
                      std::make_pair(std::size_t{2}, std::size_t{3}),
                      std::make_pair(std::size_t{3}, std::size_t{2}),
                      std::make_pair(std::size_t{5}, std::size_t{4})));

TEST(FlatMap, LexLeSetAndLexGeContainsMatchNaive) {
  SplitMix64 rng(0xfeed);
  const Space space("S", 2);
  for (int trial = 0; trial < 25; ++trial) {
    const IntTupleSet from = randomSet(rng, space, rng.nextBelow(16), -2, 2);
    const IntTupleSet bounds = randomSet(rng, space, rng.nextBelow(16), -2, 2);
    Pairs le;
    for (TupleView iv : from.points())
      for (TupleView bv : bounds.points()) {
        const Tuple i(iv), b(bv);
        if (i <= b)
          le.emplace_back(i, b);
      }
    EXPECT_EQ(toVec(lexLeSet(from, bounds)),
              sortedUnique(std::move(le)));

    Pairs ge;
    for (TupleView xv : from.points())
      for (TupleView yv : from.points()) {
        const Tuple x(xv), y(yv);
        if (y <= x)
          ge.emplace_back(x, y);
      }
    EXPECT_EQ(toVec(lexGeContains(from)), sortedUnique(std::move(ge)));
  }
}

TEST(FlatMap, IdentityAndFromFunction) {
  SplitMix64 rng(0x1d);
  const Space in("I", 2), out("O", 3);
  const IntTupleSet dom = randomSet(rng, in, 18, -4, 4);
  const IntMap id = IntMap::identity(dom);
  EXPECT_TRUE(isSingleValued(id));
  EXPECT_TRUE(id.isInjective());
  EXPECT_EQ(toVec(id.domain()), toVec(dom));
  EXPECT_EQ(toVec(id.range()), toVec(dom));

  const IntMap f = fromFunction(dom, out, [](const Tuple& t) {
    return Tuple{t[1], t[0], t[0] + t[1]};
  });
  EXPECT_EQ(f.size(), dom.size());
  for (const auto& [x, y] : f.pairs()) {
    const Tuple xt(x);
    EXPECT_EQ(Tuple(y), (Tuple{xt[1], xt[0], xt[0] + xt[1]}));
  }
}

TEST(FlatMap, SingleValuedExtremaShareTheRowBuffer) {
  SplitMix64 rng(0x51);
  const Space in("I", 2), out("O", 2);
  const IntTupleSet dom = randomSet(rng, in, 16, -3, 3);
  const IntMap f = fromFunction(
      dom, out, [](const Tuple& t) { return Tuple{t[0] + 1, t[1]}; });
  EXPECT_EQ(&f.lexmaxPerDomain().rowData(), &f.rowData());
}

TEST(FlatTuple, InlineHeapBoundary) {
  // kInlineCapacity == 4: arity 4 stays inline, arity 5 spills.
  const Tuple small{1, 2, 3, 4};
  const Tuple big{1, 2, 3, 4, 5};
  Tuple copy = big;
  EXPECT_EQ(copy, big);
  copy = small;
  EXPECT_EQ(copy, small);
  Tuple moved = std::move(copy);
  EXPECT_EQ(moved, small);
  EXPECT_LT(small, big);       // prefix is lexicographically smaller
  EXPECT_EQ(concat(small, Tuple{5}), big);
  EXPECT_EQ(big.slice(0, 4), small);
  EXPECT_EQ(Tuple::zeros(5), (Tuple{0, 0, 0, 0, 0}));
  // Self-assignment and views across the boundary.
  moved = static_cast<const Tuple&>(moved);
  EXPECT_EQ(moved, small);
  EXPECT_EQ(Tuple(TupleView(big)), big);
}

// rows::sortUnique sorts rows up to 8 values wide as fixed-width records
// and wider ones through an index. The index sort is the oracle for every
// width: the outputs must be byte-equal.
TEST(RowsSortUnique, MatchesTheIndexSortOnEveryWidthAndShape) {
  enum class Shape { Random, Duplicated, Sorted, Reversed, Empty };
  SplitMix64 rng(0x5047);
  for (std::size_t w = 1; w <= 10; ++w)
    for (Shape shape : {Shape::Random, Shape::Duplicated, Shape::Sorted,
                        Shape::Reversed, Shape::Empty})
      for (std::size_t n : {1u, 2u, 7u, 64u, 500u}) {
        if (shape == Shape::Empty)
          n = 0;
        // Few distinct values per column keep duplicates frequent;
        // negative and huge values exercise the signed comparison.
        const std::uint64_t span = shape == Shape::Duplicated ? 2 : 5;
        std::vector<std::vector<Value>> records(n, std::vector<Value>(w));
        for (std::vector<Value>& record : records)
          for (Value& v : record)
            v = static_cast<Value>(rng.nextBelow(span)) - 2 +
                (rng.nextBelow(16) == 0 ? Value{1} << 40 : 0);
        if (shape == Shape::Sorted || shape == Shape::Reversed)
          std::sort(records.begin(), records.end()); // duplicates kept
        if (shape == Shape::Reversed)
          std::reverse(records.begin(), records.end());
        RowBuffer rows;
        for (const std::vector<Value>& record : records)
          rows.insert(rows.end(), record.begin(), record.end());
        RowBuffer got = rows, want = rows;
        rows::sortUnique(got, w);
        rows::detail::sortUniqueIndexed(want, w);
        ASSERT_EQ(got, want) << "width " << w << " rows " << n << " shape "
                             << static_cast<int>(shape);
        ASSERT_TRUE(rows::isSortedUnique(got, w));
      }
}

} // namespace
} // namespace pipoly::pb
