#include "testing/parser.hpp"

#include "support/assert.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pb {
namespace {

TEST(ParserTest, SimpleInterval) {
  IntTupleSet s = parseSet("{ S[i] : 0 <= i < 4 }");
  EXPECT_EQ(s.space().name(), "S");
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(Tuple{3}));
}

TEST(ParserTest, DefaultSpaceName) {
  IntTupleSet s = parseSet("{ [i] : 0 <= i < 2 }");
  EXPECT_EQ(s.space().name(), "S");
}

TEST(ParserTest, ChainedComparisons) {
  IntTupleSet s = parseSet("{ S[i, j] : 0 <= i < j <= 3 }");
  // i < j means pairs (0,1..3), (1,2..3), (2,3).
  EXPECT_EQ(s.size(), 6u);
  EXPECT_TRUE(s.contains(Tuple{0, 3}));
  EXPECT_FALSE(s.contains(Tuple{2, 2}));
}

TEST(ParserTest, ParameterBinding) {
  IntTupleSet s = parseSet("{ S[i, j] : 0 <= i < N and 0 <= j < N }",
                           {{"N", 3}});
  EXPECT_EQ(s.size(), 9u);
}

TEST(ParserTest, UnknownIdentifierThrows) {
  EXPECT_THROW((void)parseSet("{ S[i] : 0 <= i < M }"), Error);
}

TEST(ParserTest, ArithmeticInConditions) {
  IntTupleSet s =
      parseSet("{ S[i, j] : 0 <= i < 10 and j = 2*i + 1 and j < 10 }");
  EXPECT_EQ(s.size(), 5u); // j in {1,3,5,7,9}
  EXPECT_TRUE(s.contains(Tuple{4, 9}));
}

TEST(ParserTest, ImplicitMultiplication) {
  IntTupleSet a = parseSet("{ S[i, j] : 0 <= i < 4 and j = 2 i }");
  IntTupleSet b = parseSet("{ S[i, j] : 0 <= i < 4 and j = 2*i }");
  EXPECT_EQ(a, b);
}

TEST(ParserTest, NegativeTermsAndParens) {
  IntTupleSet s = parseSet("{ S[i] : -(2 - i) >= 0 and i <= 4 }");
  EXPECT_EQ(lexmin(s), (Tuple{2}));
  EXPECT_EQ(s.lexmax(), (Tuple{4}));
}

TEST(ParserTest, SimpleMap) {
  IntMap m = parseMap("{ S[i] -> A[a] : 0 <= i < 3 and a = i + 1 }");
  EXPECT_EQ(m.domainSpace().name(), "S");
  EXPECT_EQ(m.rangeSpace().name(), "A");
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(Tuple{2}, Tuple{3}));
}

TEST(ParserTest, MultiDimMap) {
  IntMap m = parseMap(
      "{ S[i, j] -> A[a, b] : 0 <= i < 2 and 0 <= j < 2 and a = i and b = 2*j "
      "}");
  EXPECT_EQ(m.size(), 4u);
  EXPECT_TRUE(m.contains(Tuple{1, 1}, Tuple{1, 2}));
}

TEST(ParserTest, MapWithCouplingBetweenSides) {
  IntMap m =
      parseMap("{ S[i] -> T[j] : 0 <= i < 4 and i <= j and j < 4 }");
  // i -> j >= i.
  EXPECT_EQ(m.size(), 10u);
  EXPECT_TRUE(m.contains(Tuple{0}, Tuple{3}));
  EXPECT_FALSE(m.contains(Tuple{3}, Tuple{0}));
}

TEST(ParserTest, EqualitySpelledBothWays) {
  IntMap a = parseMap("{ S[i] -> T[j] : 0 <= i < 3 and j = i }");
  IntMap b = parseMap("{ S[i] -> T[j] : 0 <= i < 3 and j == i }");
  EXPECT_EQ(a, b);
}

TEST(ParserTest, UnboundedSetThrows) {
  EXPECT_THROW((void)parseSet("{ S[i] : i >= 0 }"), Error);
}

TEST(ParserTest, MalformedInputThrows) {
  EXPECT_THROW((void)parseSet("{ S[i : 0 <= i < 3 }"), Error);
  EXPECT_THROW((void)parseSet("S[i] : 0 <= i < 3"), Error);
  EXPECT_THROW((void)parseSet("{ S[i] : 0 <= i < 3 } trailing"), Error);
}

TEST(ParserTest, DuplicateMapVariableThrows) {
  EXPECT_THROW((void)parseMap("{ S[i] -> T[i] : 0 <= i < 3 }"), Error);
}

} // namespace
} // namespace pipoly::pb
