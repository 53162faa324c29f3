#include "pipeline/blocking.hpp"

#include "pipeline/pipeline_map.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"
#include "testing/legacy_blocking.hpp"
#include "testing/parser.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pipeline {
namespace {

using pb::IntTupleSet;
using pb::Space;
using pb::Tuple;
using testing::blockingMap;
using testing::blockingMapNaive;
using testing::integrateBlockingMaps;
using testing::sourceBlockingMap;
using testing::targetBlockingMap;

const Space kS("S", 1);

TEST(BlockingMapTest, SimpleBoundaries) {
  IntTupleSet domain(kS, {{0}, {1}, {2}, {3}, {4}, {5}});
  IntTupleSet bounds(kS, {{1}, {3}});
  pb::IntMap v = blockingMap(domain, bounds);
  EXPECT_EQ(singleImageOf(v, Tuple{0}), (Tuple{1}));
  EXPECT_EQ(singleImageOf(v, Tuple{1}), (Tuple{1}));
  EXPECT_EQ(singleImageOf(v, Tuple{2}), (Tuple{3}));
  EXPECT_EQ(singleImageOf(v, Tuple{3}), (Tuple{3}));
  // Remainder block: mapped to lexmax of the domain.
  EXPECT_EQ(singleImageOf(v, Tuple{4}), (Tuple{5}));
  EXPECT_EQ(singleImageOf(v, Tuple{5}), (Tuple{5}));
}

TEST(BlockingMapTest, MatchesNaiveFormula) {
  IntTupleSet domain(kS, {{0}, {1}, {2}, {3}, {4}, {5}, {6}});
  IntTupleSet bounds(kS, {{2}, {4}});
  EXPECT_EQ(blockingMap(domain, bounds), blockingMapNaive(domain, bounds));
  // Empty boundary set: one big block.
  EXPECT_EQ(blockingMap(domain, IntTupleSet(kS)),
            blockingMapNaive(domain, IntTupleSet(kS)));
  // Boundary at the very end.
  IntTupleSet endBound(kS, {{6}});
  EXPECT_EQ(blockingMap(domain, endBound),
            blockingMapNaive(domain, endBound));
}

TEST(BlockingMapTest, NoBoundariesGivesSingleBlock) {
  IntTupleSet domain(kS, {{0}, {1}, {2}});
  pb::IntMap v = blockingMap(domain, IntTupleSet(kS));
  EXPECT_EQ(v.range(), IntTupleSet(kS, {Tuple{2}}));
}

TEST(BlockingMapTest, BoundariesOutsideDomainThrow) {
  IntTupleSet domain(kS, {{0}, {1}});
  IntTupleSet bounds(kS, {{5}});
  EXPECT_THROW((void)blockingMap(domain, bounds), Error);
}

TEST(BlockingMapTest, TotalAndIdempotent) {
  IntTupleSet domain(kS, {{0}, {1}, {2}, {3}, {4}});
  IntTupleSet bounds(kS, {{0}, {2}});
  pb::IntMap v = blockingMap(domain, bounds);
  EXPECT_EQ(v.domain(), domain);
  for (const Tuple& t : domain.points()) {
    Tuple rep = *singleImageOf(v, t);
    EXPECT_EQ(*singleImageOf(v, rep), rep) << "not idempotent at " << t;
    EXPECT_GE(rep, t);
  }
}

TEST(BlockingMapTest, PaperSourceBlockingExample) {
  // §4.1, Listing 1 with N = 20: the source blocking map of S contains
  //   S[1,1] -> S[1,2], S[1,2] -> S[1,2], S[1,3] -> S[1,4], S[1,4] -> S[1,4].
  scop::Scop scop = testing::listing1(20);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap v = sourceBlockingMap(scop.statement(0).domain(), t);
  EXPECT_EQ(singleImageOf(v, Tuple{1, 1}), (Tuple{1, 2}));
  EXPECT_EQ(singleImageOf(v, Tuple{1, 2}), (Tuple{1, 2}));
  EXPECT_EQ(singleImageOf(v, Tuple{1, 3}), (Tuple{1, 4}));
  EXPECT_EQ(singleImageOf(v, Tuple{1, 4}), (Tuple{1, 4}));
}

TEST(BlockingMapTest, SourceRemainderBlock) {
  // Listing 1, N = 20: source iterations with i0 > 8 feed no target
  // iteration; they collapse into the remainder block rep S[18,18].
  scop::Scop scop = testing::listing1(20);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap v = sourceBlockingMap(scop.statement(0).domain(), t);
  EXPECT_EQ(singleImageOf(v, Tuple{9, 0}), (Tuple{18, 18}));
  EXPECT_EQ(singleImageOf(v, Tuple{18, 18}), (Tuple{18, 18}));
  // ... but iterations within the pipelined region do not.
  EXPECT_EQ(singleImageOf(v, Tuple{8, 16}), (Tuple{8, 16}));
}

TEST(BlockingMapTest, TargetBlocking) {
  scop::Scop scop = testing::listing1(20);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap y = targetBlockingMap(scop.statement(1).domain(), t);
  // Range(T) covers every target iteration, so each block is a singleton.
  EXPECT_EQ(y, pb::IntMap::identity(scop.statement(1).domain()));
}

TEST(IntegrateBlockingTest, LexminOfUnion) {
  IntTupleSet domain(kS, {{0}, {1}, {2}, {3}, {4}, {5}});
  pb::IntMap coarse = blockingMap(domain, IntTupleSet(kS, {Tuple{3}}));
  pb::IntMap fine = blockingMap(domain, IntTupleSet(kS, {{1}, {4}}));
  pb::IntMap sigma = integrateBlockingMaps({coarse, fine});
  // Boundary union {1, 3, 4} plus remainder to 5.
  EXPECT_EQ(singleImageOf(sigma, Tuple{0}), (Tuple{1}));
  EXPECT_EQ(singleImageOf(sigma, Tuple{2}), (Tuple{3}));
  EXPECT_EQ(singleImageOf(sigma, Tuple{4}), (Tuple{4}));
  EXPECT_EQ(singleImageOf(sigma, Tuple{5}), (Tuple{5}));
}

TEST(IntegrateBlockingTest, EquivalentToBlockingOverBoundaryUnion) {
  IntTupleSet domain(kS, {{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}});
  IntTupleSet b1(kS, {{2}, {5}});
  IntTupleSet b2(kS, {{3}, {5}, {6}});
  pb::IntMap viaUnionOfMaps = integrateBlockingMaps(
      {blockingMap(domain, b1), blockingMap(domain, b2)});
  // Note: remainder reps (lexmax) also act as boundaries in the union, so
  // the boundary union always includes domain.lexmax() here.
  IntTupleSet boundaryUnion =
      b1.unite(b2).unite(IntTupleSet(kS, {domain.lexmax()}));
  EXPECT_EQ(viaUnionOfMaps, blockingMap(domain, boundaryUnion));
}

TEST(IntegrateBlockingTest, SingleMapIsIdentityOperation) {
  IntTupleSet domain(kS, {{0}, {1}, {2}});
  pb::IntMap v = blockingMap(domain, IntTupleSet(kS, {Tuple{1}}));
  EXPECT_EQ(integrateBlockingMaps({v}), v);
}

} // namespace
} // namespace pipoly::pipeline
