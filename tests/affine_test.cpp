#include "presburger/affine.hpp"

#include "support/assert.hpp"

#include <gtest/gtest.h>

namespace pipoly::pb {
namespace {

TEST(AffineExprTest, DimAndConstantFactories) {
  AffineExpr i = AffineExpr::dim(2, 0);
  EXPECT_EQ(i.evaluate(Tuple{7, 3}), 7);
  AffineExpr c = AffineExpr::constant(2, 5);
  EXPECT_EQ(c.evaluate(Tuple{7, 3}), 5);
  EXPECT_TRUE(c.isConstant());
  EXPECT_FALSE(i.isConstant());
}

TEST(AffineExprTest, Arithmetic) {
  AffineExpr i = AffineExpr::dim(2, 0);
  AffineExpr j = AffineExpr::dim(2, 1);
  AffineExpr e = 2 * i + j - 3; // 2i + j - 3
  EXPECT_EQ(e.evaluate(Tuple{4, 1}), 6);
  EXPECT_EQ((-e).evaluate(Tuple{4, 1}), -6);
  EXPECT_EQ((e + e).evaluate(Tuple{1, 1}), 0);
  EXPECT_EQ((e - e).evaluate(Tuple{9, 9}), 0);
}

TEST(AffineExprTest, MixedDimCountThrows) {
  AffineExpr a = AffineExpr::dim(2, 0);
  AffineExpr b = AffineExpr::dim(3, 0);
  EXPECT_THROW((void)(a + b), Error);
}

TEST(AffineExprTest, ToString) {
  AffineExpr i = AffineExpr::dim(2, 0);
  AffineExpr j = AffineExpr::dim(2, 1);
  EXPECT_EQ((2 * i + j - 3).toString({"i", "j"}), "2*i + j - 3");
  EXPECT_EQ((-1 * i).toString({"i", "j"}), "-i");
  EXPECT_EQ(AffineExpr::constant(2, 0).toString(), "0");
  EXPECT_EQ((i - j).toString(), "d0 - d1");
}

TEST(AffineMapTest, GeneralMap) {
  // (i, j) -> (i + j, 2j)
  AffineExpr i = AffineExpr::dim(2, 0);
  AffineExpr j = AffineExpr::dim(2, 1);
  AffineMap m(2, {i + j, 2 * j});
  EXPECT_EQ(m.numInputs(), 2u);
  EXPECT_EQ(m.numOutputs(), 2u);
  EXPECT_EQ(m.evaluate(Tuple{3, 4}), (Tuple{7, 8}));
}

TEST(AffineMapTest, OutputArityMismatchThrows) {
  EXPECT_THROW(AffineMap(2, {AffineExpr::dim(3, 0)}), Error);
}

} // namespace
} // namespace pipoly::pb
