#include "presburger/set.hpp"

#include "support/assert.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pb {
namespace {

const Space kS("S", 2);

IntTupleSet makeSet(std::vector<Tuple> pts) { return IntTupleSet(kS, std::move(pts)); }

TEST(IntTupleSetTest, ConstructionSortsAndDeduplicates) {
  IntTupleSet s = makeSet({{1, 0}, {0, 1}, {1, 0}, {0, 0}});
  EXPECT_EQ(s.size(), 3u);
  std::vector<Tuple> expected{{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(s.points(), expected);
}

TEST(IntTupleSetTest, ArityMismatchThrows) {
  EXPECT_THROW(IntTupleSet(kS, {Tuple{1}}), Error);
}

TEST(IntTupleSetTest, Rectangle) {
  IntTupleSet s = rectangle(kS, {2, 2});
  std::vector<Tuple> expected{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(s.points(), expected);
}

TEST(IntTupleSetTest, Contains) {
  IntTupleSet s = rectangle(kS, {3, 3});
  EXPECT_TRUE(s.contains(Tuple{2, 2}));
  EXPECT_FALSE(s.contains(Tuple{3, 0}));
}

TEST(IntTupleSetTest, SetAlgebra) {
  IntTupleSet a = makeSet({{0, 0}, {0, 1}, {1, 0}});
  IntTupleSet b = makeSet({{0, 1}, {1, 1}});
  EXPECT_EQ(a.unite(b).size(), 4u);
  EXPECT_EQ(a.intersect(b), makeSet({{0, 1}}));
  EXPECT_EQ(subtract(a, b), makeSet({{0, 0}, {1, 0}}));
  EXPECT_TRUE(isSubsetOf(makeSet({{0, 1}}), a));
  EXPECT_FALSE(isSubsetOf(a, b));
  EXPECT_TRUE(isSubsetOf(IntTupleSet(kS), b));
}

TEST(IntTupleSetTest, CrossSpaceOperationThrows) {
  IntTupleSet a = makeSet({{0, 0}});
  IntTupleSet b(Space("T", 2), {Tuple{0, 0}});
  EXPECT_THROW((void)a.unite(b), Error);
}

TEST(IntTupleSetTest, LexExtremes) {
  IntTupleSet s = makeSet({{2, 0}, {0, 5}, {2, 1}});
  EXPECT_EQ(lexmin(s), (Tuple{0, 5}));
  EXPECT_EQ(s.lexmax(), (Tuple{2, 1}));
  EXPECT_THROW((void)lexmin(IntTupleSet(kS)), Error);
}

TEST(IntTupleSetTest, Filter) {
  IntTupleSet s = rectangle(kS, {4, 4});
  IntTupleSet even = filter(s, [](const Tuple& t) { return t[0] % 2 == 0; });
  EXPECT_EQ(even.size(), 8u);
}

TEST(IntTupleSetTest, ToString) {
  IntTupleSet s = makeSet({{0, 1}});
  EXPECT_EQ(s.toString(), "{ S[0, 1] }");
}

} // namespace
} // namespace pipoly::pb
