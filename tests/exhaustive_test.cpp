// Exhaustive small-universe tests: for tiny domains we can check the
// paper's operators against brute force over *every* input, not just
// random samples.

#include "pipeline/blocking.hpp"
#include "pipeline/pipeline_map.hpp"
#include "scop/builder.hpp"
#include "testing/legacy_blocking.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pipoly::pipeline {
namespace {

using pb::IntTupleSet;
using pb::Space;
using pb::Tuple;
using testing::blockingMap;
using testing::blockingMapNaive;
using testing::integrateBlockingMaps;

const Space kS("S", 1);

/// The interval form of detection (pipeline/blocking.hpp) describes the
/// same partition as the explicit map `sigma`: the same representatives,
/// and block b holds exactly the domain rows [starts[b], starts[b + 1]).
void expectIntervalsMatch(const IntTupleSet& domain,
                          const std::vector<IntTupleSet>& boundarySets,
                          const pb::IntMap& sigma, const std::string& what) {
  const IntTupleSet reps = blockReps(domain, boundarySets);
  EXPECT_EQ(reps, sigma.range()) << what;
  const std::vector<std::uint32_t> starts = blockStarts(domain, reps);
  ASSERT_EQ(starts.size(), reps.size() + 1) << what;
  const pb::IntMap expansion = sigma.inverse();
  for (std::size_t b = 0; b < reps.size(); ++b) {
    std::vector<Tuple> rows;
    for (std::uint32_t r = starts[b]; r < starts[b + 1]; ++r)
      rows.push_back(domain.points()[r]);
    EXPECT_EQ(rows, imagesOf(expansion, reps.points()[b])) << what;
    EXPECT_EQ(blockOf(reps, rows.back().data()), b) << what;
  }
}

TEST(ExhaustiveBlockingTest, AllBoundarySubsetsOfSixPoints) {
  // Domain {0..5}; every one of the 2^6 boundary subsets must satisfy the
  // blocking-map contract and match the naive eq.-2 formula.
  std::vector<Tuple> pts;
  for (pb::Value v = 0; v < 6; ++v)
    pts.push_back(Tuple{v});
  IntTupleSet domain(kS, pts);

  for (unsigned mask = 0; mask < 64; ++mask) {
    std::vector<Tuple> bounds;
    for (unsigned bit = 0; bit < 6; ++bit)
      if (mask & (1u << bit))
        bounds.push_back(Tuple{static_cast<pb::Value>(bit)});
    IntTupleSet boundaries(kS, bounds);

    pb::IntMap fast = blockingMap(domain, boundaries);
    EXPECT_EQ(fast, blockingMapNaive(domain, boundaries)) << "mask " << mask;
    expectIntervalsMatch(domain, {boundaries}, fast,
                         "mask " + std::to_string(mask));

    // Contract: total, single-valued, idempotent, monotone, and every
    // image is a boundary or the domain max.
    EXPECT_EQ(fast.domain(), domain);
    EXPECT_TRUE(isSingleValued(fast));
    Tuple prev;
    bool first = true;
    for (const Tuple& t : domain.points()) {
      Tuple rep = *singleImageOf(fast, t);
      EXPECT_GE(rep, t);
      EXPECT_TRUE(boundaries.contains(rep) || rep == domain.lexmax());
      EXPECT_EQ(*singleImageOf(fast, rep), rep);
      if (!first) {
        EXPECT_GE(rep, prev);
      }
      prev = rep;
      first = false;
    }
  }
}

TEST(ExhaustivePipelineMapTest, AllStrideOffsetCombos1D) {
  // 1-D producer/consumer: every (stride, offset) read pattern in a small
  // range; the streaming pipeline map must match the naive composition,
  // and every pair must satisfy the §4.1 definition directly.
  for (pb::Value stride = 1; stride <= 3; ++stride) {
    for (pb::Value offset = 0; offset <= 2; ++offset) {
      scop::ScopBuilder b("combo");
      std::size_t A = b.array("A", {32});
      std::size_t B = b.array("B", {32});
      auto S = b.statement("S", 1);
      S.bound(0, 0, 12);
      S.write(A, {S.dim(0)});
      auto T = b.statement("T", 1);
      T.bound(0, 0, (12 - offset) / stride);
      T.write(B, {T.dim(0)});
      T.read(A, {stride * T.dim(0) + offset});
      scop::Scop scop = b.build();

      pb::IntMap fast = pipelineMap(scop, 0, 1);
      EXPECT_EQ(fast, pipelineMapNaive(scop, 0, 1))
          << "stride " << stride << " offset " << offset;

      // Definition check: (i, j) in T means finishing S up to i enables
      // T up to j — i.e. stride*j' + offset <= i for all j' <= j — and
      // both extremes are tight.
      pb::IntMap p = producerRelation(scop, 0, 1);
      for (const auto& [i, j] : fast.pairs()) {
        for (const auto& [jr, iw] : p.pairs()) {
          if (jr <= j) {
            EXPECT_LE(iw, i);
          }
        }
        // Tightness of i: it must itself be a required iteration.
        EXPECT_TRUE(p.contains(j, i))
            << "source " << i << " is not the exact requirement of " << j;
      }
    }
  }
}

TEST(ExhaustiveIntegrationTest, AllPairsOfBoundarySets) {
  // Eq. 3 over every pair of boundary subsets of a 5-point domain: the
  // integrated map equals blocking over the union of boundaries (plus
  // remainder reps).
  std::vector<Tuple> pts;
  for (pb::Value v = 0; v < 5; ++v)
    pts.push_back(Tuple{v});
  IntTupleSet domain(kS, pts);

  for (unsigned m1 = 0; m1 < 32; ++m1) {
    for (unsigned m2 = 0; m2 < 32; ++m2) {
      auto boundsOf = [&](unsigned mask) {
        std::vector<Tuple> bounds;
        for (unsigned bit = 0; bit < 5; ++bit)
          if (mask & (1u << bit))
            bounds.push_back(Tuple{static_cast<pb::Value>(bit)});
        return IntTupleSet(kS, bounds);
      };
      IntTupleSet b1 = boundsOf(m1), b2 = boundsOf(m2);
      pb::IntMap integrated = integrateBlockingMaps(
          {blockingMap(domain, b1), blockingMap(domain, b2)});
      IntTupleSet unionBounds =
          b1.unite(b2).unite(IntTupleSet(kS, {domain.lexmax()}));
      EXPECT_EQ(integrated, blockingMap(domain, unionBounds))
          << "masks " << m1 << ", " << m2;
      expectIntervalsMatch(domain, {b1, b2}, integrated,
                           "masks " + std::to_string(m1) + ", " +
                               std::to_string(m2));
    }
  }
}

} // namespace
} // namespace pipoly::pipeline
