// Randomized soundness tests for the polyhedral layer: Fourier–Motzkin
// projection must over-approximate the integer shadow exactly enough for
// the enumeration to be exact, and enumeration must agree with brute
// force over the bounding box.

#include "presburger/polyhedron.hpp"

#include "support/rng.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pipoly::pb {
namespace {

/// A random bounded polyhedron in `dims` dimensions: a box plus a few
/// random half-spaces and occasionally an equality.
Polyhedron randomPolyhedron(SplitMix64& rng, std::size_t dims) {
  Polyhedron p(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    AffineExpr x = AffineExpr::dim(dims, d);
    Value lo = rng.nextInRange(-3, 0);
    Value hi = rng.nextInRange(1, 5);
    p.add(Constraint::ge(x - lo));
    p.add(Constraint::le(x, AffineExpr::constant(dims, hi)));
  }
  const std::size_t extra = rng.nextBelow(3);
  for (std::size_t k = 0; k < extra; ++k) {
    AffineExpr e(dims, rng.nextInRange(-4, 4));
    for (std::size_t d = 0; d < dims; ++d)
      e.coeff(d) = rng.nextInRange(-2, 2);
    if (rng.nextBelow(4) == 0)
      p.add(Constraint::eq(e));
    else
      p.add(Constraint::ge(e));
  }
  return p;
}

/// Brute-force enumeration over the per-dimension [-3, 5] box.
std::vector<Tuple> bruteForce(const Polyhedron& p) {
  std::vector<Tuple> out;
  std::vector<Value> current(p.numDims(), -3);
  while (true) {
    Tuple t(current);
    if (p.contains(t))
      out.push_back(t);
    std::size_t k = p.numDims();
    while (k > 0) {
      --k;
      if (++current[k] <= 5)
        break;
      current[k] = -3;
      if (k == 0)
        return out;
    }
    if (p.numDims() == 0)
      return out;
  }
}

class PolyhedronPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PolyhedronPropertyTest, EnumerationMatchesBruteForce2D) {
  SplitMix64 rng(GetParam());
  Polyhedron p = randomPolyhedron(rng, 2);
  std::vector<Tuple> expected = bruteForce(p);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(enumerate(p), expected);
}

TEST_P(PolyhedronPropertyTest, EnumerationMatchesBruteForce3D) {
  SplitMix64 rng(GetParam() ^ 0xdead);
  Polyhedron p = randomPolyhedron(rng, 3);
  std::vector<Tuple> expected = bruteForce(p);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(enumerate(p), expected);
}

TEST_P(PolyhedronPropertyTest, ProjectionContainsShadow) {
  SplitMix64 rng(GetParam() ^ 0xbeef);
  Polyhedron p = randomPolyhedron(rng, 3);
  Polyhedron proj = p.projectOutLastDim();
  for (const Tuple& t : enumerate(p))
    EXPECT_TRUE(proj.contains(t.slice(0, 2)))
        << "projection lost shadow point of " << t;
}

INSTANTIATE_TEST_SUITE_P(Random, PolyhedronPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace pipoly::pb
