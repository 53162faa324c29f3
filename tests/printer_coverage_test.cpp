// Coverage for the remaining printer/accessor surface: affine map and
// constraint rendering, polyhedron rendering, space printing, and small
// API corners that no other suite touches.

#include "presburger/constraint.hpp"
#include "presburger/map.hpp"
#include "presburger/polyhedron.hpp"
#include "presburger/set.hpp"
#include "support/assert.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pipoly::pb {
namespace {

TEST(PrinterTest, ConstraintToString) {
  AffineExpr i = AffineExpr::dim(2, 0);
  AffineExpr j = AffineExpr::dim(2, 1);
  EXPECT_EQ(Constraint::ge(i - j).toString({"i", "j"}), "i - j >= 0");
  EXPECT_EQ(Constraint::eq(2 * i + j - 4).toString({"i", "j"}),
            "2*i + j - 4 = 0");
  EXPECT_EQ(Constraint::lt(i, j).toString({"i", "j"}), "-i + j - 1 >= 0");
}

TEST(PrinterTest, PolyhedronToString) {
  Polyhedron p(1);
  p.add(Constraint::ge(AffineExpr::dim(1, 0)));
  p.add(Constraint::le(AffineExpr::dim(1, 0), AffineExpr::constant(1, 5)));
  std::string text = p.toString({"x"});
  EXPECT_NE(text.find("x >= 0"), std::string::npos);
  EXPECT_NE(text.find("and"), std::string::npos);
}

TEST(PrinterTest, AffineMapToString) {
  AffineExpr i = AffineExpr::dim(2, 0);
  AffineExpr j = AffineExpr::dim(2, 1);
  AffineMap m(2, {i + j, 2 * j});
  EXPECT_EQ(m.toString({"i", "j"}), "(i + j, 2*j)");
}

TEST(PrinterTest, SpaceStreamOutput) {
  std::ostringstream os;
  os << Space("S", 3);
  EXPECT_EQ(os.str(), "S/3");
}

TEST(PrinterTest, MapStreamOutput) {
  IntMap m(Space("A", 1), Space("B", 1), {{{1}, {2}}});
  std::ostringstream os;
  os << m;
  EXPECT_EQ(os.str(), "{ A[1] -> B[2] }");
}

TEST(ApiCornerTest, EmptyMapQueries) {
  IntMap m(Space("A", 1), Space("B", 1));
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.domain().empty());
  EXPECT_TRUE(m.range().empty());
  EXPECT_TRUE(m.isInjective());
  EXPECT_TRUE(isSingleValued(m));
  EXPECT_TRUE(m.lexmaxPerDomain().empty());
  EXPECT_TRUE(m.inverse().empty());
}

TEST(ApiCornerTest, FromFunctionBadArityThrows) {
  IntTupleSet dom(Space("A", 1), {Tuple{0}});
  EXPECT_THROW((void)fromFunction(
                   dom, Space("B", 2),
                   [](const Tuple& t) { return Tuple{t[0]}; }),
               Error);
}

TEST(ApiCornerTest, SetFilterKeepsSpace) {
  IntTupleSet s = rectangle(Space("S", 1), {5});
  IntTupleSet f = filter(s, [](const Tuple& t) { return t[0] > 2; });
  EXPECT_EQ(f.space(), s.space());
  EXPECT_EQ(f.size(), 2u);
}

TEST(ApiCornerTest, StrideOfConstantDimIsZero) {
  IntTupleSet s(Space("S", 2), {{3, 0}, {3, 2}, {3, 4}});
  EXPECT_EQ(s.strideOfDim(0), 0);
  EXPECT_EQ(s.strideOfDim(1), 2);
}

TEST(ApiCornerTest, LexLeSetAcrossSpacesThrows) {
  IntTupleSet a(Space("A", 1), {Tuple{0}});
  IntTupleSet b(Space("B", 1), {Tuple{0}});
  EXPECT_THROW((void)lexLeSet(a, b), Error);
}

} // namespace
} // namespace pipoly::pb
