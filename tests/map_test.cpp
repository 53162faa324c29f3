#include "presburger/map.hpp"

#include "support/assert.hpp"
#include "testing/parser.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pb {
namespace {

const Space kI("I", 1);
const Space kJ("J", 1);
const Space kM("M", 1);

IntMap mapOf(Space in, Space out, std::vector<IntMap::Pair> pairs) {
  return IntMap(std::move(in), std::move(out), std::move(pairs));
}

TEST(IntMapTest, ConstructionSortsAndDeduplicates) {
  IntMap m = mapOf(kI, kJ, {{{1}, {2}}, {{0}, {1}}, {{1}, {2}}});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(Tuple{0}, Tuple{1}));
  EXPECT_TRUE(m.contains(Tuple{1}, Tuple{2}));
}

TEST(IntMapTest, DomainAndRange) {
  IntMap m = mapOf(kI, kJ, {{{0}, {5}}, {{0}, {6}}, {{2}, {5}}});
  EXPECT_EQ(m.domain(), IntTupleSet(kI, {Tuple{0}, Tuple{2}}));
  EXPECT_EQ(m.range(), IntTupleSet(kJ, {Tuple{5}, Tuple{6}}));
}

TEST(IntMapTest, Inverse) {
  IntMap m = mapOf(kI, kJ, {{{0}, {5}}, {{1}, {6}}});
  IntMap inv = m.inverse();
  EXPECT_EQ(inv.domainSpace(), kJ);
  EXPECT_EQ(inv.rangeSpace(), kI);
  EXPECT_TRUE(inv.contains(Tuple{5}, Tuple{0}));
  EXPECT_EQ(inv.inverse(), m);
}

TEST(IntMapTest, Composition) {
  // rd: J -> M, wrInv: M -> I; wrInv(rd): J -> I.
  IntMap rd = mapOf(kJ, kM, {{{0}, {10}}, {{1}, {11}}, {{1}, {12}}});
  IntMap wrInv = mapOf(kM, kI, {{{10}, {0}}, {{11}, {4}}, {{12}, {9}}});
  IntMap p = wrInv.compose(rd);
  EXPECT_EQ(p.domainSpace(), kJ);
  EXPECT_EQ(p.rangeSpace(), kI);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_TRUE(p.contains(Tuple{0}, Tuple{0}));
  EXPECT_TRUE(p.contains(Tuple{1}, Tuple{4}));
  EXPECT_TRUE(p.contains(Tuple{1}, Tuple{9}));
}

TEST(IntMapTest, CompositionSpaceMismatchThrows) {
  IntMap rd = mapOf(kJ, kM, {});
  IntMap other = mapOf(kJ, kI, {});
  EXPECT_THROW((void)other.compose(rd), Error);
}

TEST(IntMapTest, ApplyAndImages) {
  IntMap m = mapOf(kI, kJ, {{{0}, {3}}, {{0}, {4}}, {{1}, {5}}});
  EXPECT_EQ(imagesOf(m, Tuple{1}), (std::vector<Tuple>{Tuple{5}}));
  EXPECT_TRUE(imagesOf(m, Tuple{9}).empty());
}

TEST(IntMapTest, SingleImageOf) {
  IntMap m = mapOf(kI, kJ, {{{0}, {3}}, {{0}, {4}}, {{1}, {5}}});
  EXPECT_EQ(singleImageOf(m, Tuple{1}), Tuple{5});
  EXPECT_EQ(singleImageOf(m, Tuple{7}), std::nullopt);
  EXPECT_THROW((void)singleImageOf(m, Tuple{0}), Error);
}

TEST(IntMapTest, LexmaxPerDomain) {
  const Space s2("S", 2);
  IntMap m(kI, s2,
           {{{0}, {1, 9}}, {{0}, {2, 0}}, {{1}, {0, 0}}, {{1}, {0, 1}}});
  IntMap mx = m.lexmaxPerDomain();
  EXPECT_EQ(mx.size(), 2u);
  EXPECT_TRUE(mx.contains(Tuple{0}, Tuple{2, 0})); // [2,0] lex> [1,9]
  EXPECT_TRUE(mx.contains(Tuple{1}, Tuple{0, 1}));
  EXPECT_TRUE(isSingleValued(mx));
}

TEST(IntMapTest, LexminPerDomain) {
  const Space s2("S", 2);
  IntMap m(kI, s2, {{{0}, {1, 9}}, {{0}, {2, 0}}, {{1}, {0, 1}}});
  IntMap mn = lexminPerDomain(m);
  EXPECT_TRUE(mn.contains(Tuple{0}, Tuple{1, 9}));
  EXPECT_TRUE(mn.contains(Tuple{1}, Tuple{0, 1}));
  EXPECT_TRUE(isSingleValued(mn));
}

TEST(IntMapTest, Identity) {
  IntTupleSet s(kI, {Tuple{3}, Tuple{5}});
  IntMap id = IntMap::identity(s);
  EXPECT_EQ(id.size(), 2u);
  EXPECT_TRUE(id.contains(Tuple{3}, Tuple{3}));
  EXPECT_TRUE(id.isInjective());
  EXPECT_TRUE(isSingleValued(id));
}

TEST(IntMapTest, LexLeSet) {
  IntTupleSet from(kI, {Tuple{0}, Tuple{1}, Tuple{2}, Tuple{3}});
  IntTupleSet bounds(kI, {Tuple{1}, Tuple{3}});
  IntMap m = lexLeSet(from, bounds);
  // 0 -> {1,3}; 1 -> {1,3}; 2 -> {3}; 3 -> {3}
  EXPECT_EQ(m.size(), 6u);
  IntMap blocking = lexminPerDomain(m);
  EXPECT_TRUE(blocking.contains(Tuple{0}, Tuple{1}));
  EXPECT_TRUE(blocking.contains(Tuple{1}, Tuple{1}));
  EXPECT_TRUE(blocking.contains(Tuple{2}, Tuple{3}));
  EXPECT_TRUE(blocking.contains(Tuple{3}, Tuple{3}));
}

TEST(IntMapTest, LexGeContains) {
  IntTupleSet s(kI, {Tuple{0}, Tuple{1}, Tuple{2}});
  IntMap m = lexGeContains(s);
  // x -> y for y <= x: sizes 1 + 2 + 3.
  EXPECT_EQ(m.size(), 6u);
  EXPECT_TRUE(m.contains(Tuple{2}, Tuple{0}));
  EXPECT_FALSE(m.contains(Tuple{0}, Tuple{2}));
}

TEST(IntMapTest, UniteAndProperties) {
  IntMap a = mapOf(kI, kJ, {{{0}, {3}}});
  IntMap b = mapOf(kI, kJ, {{{1}, {3}}});
  IntMap u = a.unite(b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_FALSE(u.isInjective()); // two inputs share output 3
  EXPECT_TRUE(isSingleValued(u));
  IntMap c = mapOf(kI, kJ, {{{0}, {3}}, {{0}, {4}}});
  EXPECT_FALSE(isSingleValued(c));
  EXPECT_TRUE(c.isInjective());
}

TEST(IntMapTest, FromFunction) {
  IntTupleSet dom(kI, {Tuple{0}, Tuple{1}, Tuple{2}});
  IntMap m = fromFunction(
      dom, kJ, [](const Tuple& t) { return Tuple{t[0] * 2}; });
  EXPECT_TRUE(m.contains(Tuple{2}, Tuple{4}));
  EXPECT_TRUE(isSingleValued(m));
}

TEST(IntMapTest, CompositionMatchesPaperNotation) {
  // The paper's P = Wr^-1(Rd): apply Rd first, then Wr^-1.
  // Wr: S[i] -> M[2i] on 0<=i<4; Rd: T[j] -> M[j] on 0<=j<8.
  IntMap wr = parseMap("{ S[i] -> M[m] : 0 <= i < 4 and m = 2*i }");
  IntMap rd = parseMap("{ T[j] -> M[m] : 0 <= j < 8 and m = j }");
  IntMap p = wr.inverse().compose(rd);
  // T[j] -> S[j/2] for even j.
  EXPECT_EQ(p.size(), 4u);
  EXPECT_TRUE(p.contains(Tuple{0}, Tuple{0}));
  EXPECT_TRUE(p.contains(Tuple{6}, Tuple{3}));
  EXPECT_FALSE(p.contains(Tuple{1}, Tuple{0}));
}

} // namespace
} // namespace pipoly::pb
