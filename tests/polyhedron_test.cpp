#include "presburger/polyhedron.hpp"

#include "support/assert.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pb {
namespace {

AffineExpr d(std::size_t n, std::size_t i) { return AffineExpr::dim(n, i); }
AffineExpr c(std::size_t n, Value v) { return AffineExpr::constant(n, v); }

/// 0 <= x < n (1-D box).
Polyhedron interval(Value lo, Value hiExclusive) {
  Polyhedron p(1);
  p.add(Constraint::ge(d(1, 0) - lo));
  p.add(Constraint::lt(d(1, 0), c(1, hiExclusive)));
  return p;
}

TEST(PolyhedronTest, Contains) {
  Polyhedron p = interval(0, 5);
  EXPECT_TRUE(p.contains(Tuple{0}));
  EXPECT_TRUE(p.contains(Tuple{4}));
  EXPECT_FALSE(p.contains(Tuple{5}));
  EXPECT_FALSE(p.contains(Tuple{-1}));
}

TEST(PolyhedronTest, Enumerate1D) {
  std::vector<Tuple> pts = enumerate(interval(2, 6));
  std::vector<Tuple> expected{{2}, {3}, {4}, {5}};
  EXPECT_EQ(pts, expected);
}

TEST(PolyhedronTest, EnumerateRectangle) {
  Polyhedron p(2);
  p.add(Constraint::ge(d(2, 0)));
  p.add(Constraint::lt(d(2, 0), c(2, 2)));
  p.add(Constraint::ge(d(2, 1)));
  p.add(Constraint::lt(d(2, 1), c(2, 3)));
  std::vector<Tuple> expected{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
  EXPECT_EQ(enumerate(p), expected);
}

TEST(PolyhedronTest, EnumerateTriangle) {
  // 0 <= i < 3, 0 <= j <= i
  Polyhedron p(2);
  p.add(Constraint::ge(d(2, 0)));
  p.add(Constraint::lt(d(2, 0), c(2, 3)));
  p.add(Constraint::ge(d(2, 1)));
  p.add(Constraint::le(d(2, 1), d(2, 0)));
  std::vector<Tuple> expected{{0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(enumerate(p), expected);
}

TEST(PolyhedronTest, EqualityConstraint) {
  // 0 <= i < 10 and i = 2j (even points with their halves)
  Polyhedron p(2);
  p.add(Constraint::ge(d(2, 0)));
  p.add(Constraint::lt(d(2, 0), c(2, 10)));
  p.add(Constraint::ge(d(2, 1)));
  p.add(Constraint::lt(d(2, 1), c(2, 10)));
  p.add(Constraint::eq(d(2, 0) - 2 * d(2, 1)));
  std::vector<Tuple> expected{{0, 0}, {2, 1}, {4, 2}, {6, 3}, {8, 4}};
  EXPECT_EQ(enumerate(p), expected);
}

TEST(PolyhedronTest, EmptyByContradiction) {
  Polyhedron p = interval(0, 5);
  p.add(Constraint::ge(d(1, 0) - 10));
  EXPECT_TRUE(enumerate(p).empty());
}

TEST(PolyhedronTest, UnboundedThrows) {
  Polyhedron p(1);
  p.add(Constraint::ge(d(1, 0)));
  EXPECT_THROW((void)enumerate(p), Error);
}

TEST(PolyhedronTest, ProjectOutLastDim) {
  // 0 <= i < 4, i <= j < 6: shadow on i is [0, 4).
  Polyhedron p(2);
  p.add(Constraint::ge(d(2, 0)));
  p.add(Constraint::lt(d(2, 0), c(2, 4)));
  p.add(Constraint::ge(d(2, 1) - d(2, 0)));
  p.add(Constraint::lt(d(2, 1), c(2, 6)));
  Polyhedron q = p.projectOutLastDim();
  EXPECT_EQ(q.numDims(), 1u);
  std::vector<Tuple> expected{{0}, {1}, {2}, {3}};
  EXPECT_EQ(enumerate(q), expected);
}

TEST(PolyhedronTest, ProjectionTightensIntegerDivision) {
  // 2j = i and 0 <= i < 5: shadow of j on i is {0, 2, 4} rationally [0, 4];
  // FM gives the rational shadow [0,4] for i; enumeration of the projected
  // 1-D system must stay within bounds.
  Polyhedron p(2);
  p.add(Constraint::ge(d(2, 0)));
  p.add(Constraint::lt(d(2, 0), c(2, 5)));
  p.add(Constraint::eq(d(2, 1) * 2 - d(2, 0)));
  Polyhedron q = p.projectOutLastDim();
  // The rational projection is a superset of the integer shadow.
  for (Tuple t : enumerate(q))
    EXPECT_TRUE(t[0] >= 0 && t[0] <= 4);
}

TEST(PolyhedronTest, ForEachPointEarlyStop) {
  int count = 0;
  interval(0, 100).forEachPoint([&](const Tuple&) {
    ++count;
    return count < 3;
  });
  EXPECT_EQ(count, 3);
}

TEST(PolyhedronTest, ZeroDimensional) {
  Polyhedron p(0);
  EXPECT_EQ(enumerate(p).size(), 1u);
  p.add(Constraint::ge(AffineExpr::constant(0, -1)));
  EXPECT_TRUE(enumerate(p).empty());
}

TEST(PolyhedronTest, ThreeDimensionalDiagonalSlab) {
  // 0 <= x,y,z < 3 and x + y + z = 3
  Polyhedron p(3);
  for (std::size_t k = 0; k < 3; ++k) {
    p.add(Constraint::ge(d(3, k)));
    p.add(Constraint::lt(d(3, k), c(3, 3)));
  }
  p.add(Constraint::eq(d(3, 0) + d(3, 1) + d(3, 2) - 3));
  auto pts = enumerate(p);
  EXPECT_EQ(pts.size(), 7u); // compositions of 3 into 3 parts each <= 2
  for (const Tuple& t : pts)
    EXPECT_EQ(t[0] + t[1] + t[2], 3);
}

} // namespace
} // namespace pipoly::pb
