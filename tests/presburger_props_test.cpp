// Property-based tests of the Presburger substrate: algebraic laws over
// randomly generated sets and maps. These are the invariants the whole
// pipeline stack silently relies on.

#include "presburger/map.hpp"
#include "presburger/set.hpp"
#include "support/rng.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pipoly::pb {
namespace {

const Space kS("S", 2);
const Space kT("T", 2);
const Space kU("U", 2);

IntTupleSet randomSet(SplitMix64& rng, const Space& space, std::size_t max) {
  std::vector<Tuple> pts;
  const std::size_t count = rng.nextBelow(max);
  for (std::size_t i = 0; i < count; ++i)
    pts.push_back(Tuple{rng.nextInRange(-4, 4), rng.nextInRange(-4, 4)});
  return IntTupleSet(space, std::move(pts));
}

IntMap randomMap(SplitMix64& rng, const Space& in, const Space& out,
                 std::size_t max) {
  std::vector<IntMap::Pair> pairs;
  const std::size_t count = rng.nextBelow(max);
  for (std::size_t i = 0; i < count; ++i)
    pairs.emplace_back(Tuple{rng.nextInRange(-3, 3), rng.nextInRange(-3, 3)},
                       Tuple{rng.nextInRange(-3, 3), rng.nextInRange(-3, 3)});
  return IntMap(in, out, std::move(pairs));
}

class SetAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetAlgebraTest, LatticeLaws) {
  SplitMix64 rng(GetParam());
  IntTupleSet a = randomSet(rng, kS, 20);
  IntTupleSet b = randomSet(rng, kS, 20);
  IntTupleSet c = randomSet(rng, kS, 20);

  // Commutativity / associativity.
  EXPECT_EQ(a.unite(b), b.unite(a));
  EXPECT_EQ(a.intersect(b), b.intersect(a));
  EXPECT_EQ(a.unite(b).unite(c), a.unite(b.unite(c)));
  EXPECT_EQ(a.intersect(b).intersect(c), a.intersect(b.intersect(c)));
  // Absorption.
  EXPECT_EQ(a.unite(a.intersect(b)), a);
  EXPECT_EQ(a.intersect(a.unite(b)), a);
  // Distributivity.
  EXPECT_EQ(a.intersect(b.unite(c)),
            a.intersect(b).unite(a.intersect(c)));
  // Subtraction identities.
  EXPECT_EQ(subtract(a, b).intersect(b), IntTupleSet(kS));
  EXPECT_EQ(subtract(a, b).unite(a.intersect(b)), a);
  // Subset relations.
  EXPECT_TRUE(isSubsetOf(a.intersect(b), a));
  EXPECT_TRUE(isSubsetOf(a, a.unite(b)));
}

TEST_P(SetAlgebraTest, LexExtremaConsistency) {
  SplitMix64 rng(GetParam() ^ 0x1234);
  IntTupleSet a = randomSet(rng, kS, 20);
  if (a.empty())
    return;
  for (const Tuple& t : a.points()) {
    EXPECT_LE(lexmin(a), t);
    EXPECT_GE(a.lexmax(), t);
  }
  EXPECT_TRUE(a.contains(lexmin(a)));
  EXPECT_TRUE(a.contains(a.lexmax()));
}

TEST_P(SetAlgebraTest, HullAndStride) {
  SplitMix64 rng(GetParam() ^ 0x9999);
  IntTupleSet a = randomSet(rng, kS, 20);
  if (a.empty())
    return;
  auto hull = a.rectangularHull();
  for (const Tuple& t : a.points())
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_GE(t[d], hull[d].lower);
      EXPECT_LE(t[d], hull[d].upper);
    }
  for (std::size_t d = 0; d < 2; ++d) {
    Value stride = a.strideOfDim(d);
    if (stride > 0) {
      for (const Tuple& t : a.points()) {
        EXPECT_EQ((t[d] - hull[d].lower) % stride, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SetAlgebraTest,
                         ::testing::Range<std::uint64_t>(1, 13));

class MapAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapAlgebraTest, InverseLaws) {
  SplitMix64 rng(GetParam());
  IntMap m = randomMap(rng, kS, kT, 30);
  EXPECT_EQ(m.inverse().inverse(), m);
  EXPECT_EQ(m.inverse().domain(), m.range());
  EXPECT_EQ(m.inverse().range(), m.domain());
}

TEST_P(MapAlgebraTest, CompositionAssociativity) {
  SplitMix64 rng(GetParam() ^ 0x77);
  IntMap f = randomMap(rng, kS, kT, 25);
  IntMap g = randomMap(rng, kT, kU, 25);
  IntMap h = randomMap(rng, kU, kS, 25);
  // h(g(f)) both ways.
  EXPECT_EQ(h.compose(g.compose(f)), h.compose(g).compose(f));
}

TEST_P(MapAlgebraTest, CompositionInverseAntidistributes) {
  SplitMix64 rng(GetParam() ^ 0xabc);
  IntMap f = randomMap(rng, kS, kT, 25);
  IntMap g = randomMap(rng, kT, kU, 25);
  // (g . f)^-1 == f^-1 . g^-1
  EXPECT_EQ(g.compose(f).inverse(), f.inverse().compose(g.inverse()));
}

TEST_P(MapAlgebraTest, IdentityIsNeutral) {
  SplitMix64 rng(GetParam() ^ 0x5150);
  IntMap f = randomMap(rng, kS, kT, 25);
  IntMap idIn = IntMap::identity(f.domain());
  IntMap idOut = IntMap::identity(f.range());
  EXPECT_EQ(f.compose(idIn), f);
  EXPECT_EQ(idOut.compose(f), f);
}

TEST_P(MapAlgebraTest, LexmaxPerDomainProperties) {
  SplitMix64 rng(GetParam() ^ 0xfeed);
  IntMap f = randomMap(rng, kS, kT, 40);
  IntMap mx = f.lexmaxPerDomain();
  IntMap mn = lexminPerDomain(f);
  EXPECT_TRUE(isSingleValued(mx));
  EXPECT_TRUE(isSingleValued(mn));
  EXPECT_EQ(mx.domain(), f.domain());
  EXPECT_EQ(mn.domain(), f.domain());
  // Every chosen value is one of the images and bounds all images.
  for (const auto& [in, out] : mx.pairs()) {
    EXPECT_TRUE(f.contains(in, out));
    for (const Tuple& img : imagesOf(f, in))
      EXPECT_LE(img, out);
  }
  for (const auto& [in, out] : mn.pairs()) {
    EXPECT_TRUE(f.contains(in, out));
    for (const Tuple& img : imagesOf(f, in))
      EXPECT_GE(img, out);
  }
}

TEST_P(MapAlgebraTest, MapLatticeLaws) {
  SplitMix64 rng(GetParam() ^ 0x600d);
  IntMap a = randomMap(rng, kS, kT, 30);
  IntMap b = randomMap(rng, kS, kT, 30);
  EXPECT_EQ(a.unite(b), b.unite(a));
  EXPECT_EQ(a.intersect(b), b.intersect(a));
  EXPECT_EQ(subtract(a, b).intersect(b), IntMap(kS, kT));
  EXPECT_EQ(subtract(a, b).unite(a.intersect(b)), a);
  EXPECT_TRUE(isSubsetOf(a.intersect(b), a));
  EXPECT_TRUE(isSubsetOf(a, a.unite(b)));
  // Inverse distributes over the lattice operations.
  EXPECT_EQ(a.unite(b).inverse(), a.inverse().unite(b.inverse()));
  EXPECT_EQ(a.intersect(b).inverse(), a.inverse().intersect(b.inverse()));
}

INSTANTIATE_TEST_SUITE_P(Random, MapAlgebraTest,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace pipoly::pb
