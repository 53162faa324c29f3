#include "pipeline/pipeline_map.hpp"

#include "support/assert.hpp"
#include "testing/fixtures.hpp"
#include "testing/interval_corpus.hpp"
#include "testing/parser.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace pipoly::pipeline {
namespace {

using pb::Tuple;

TEST(ProducerRelationTest, Listing1) {
  scop::Scop scop = testing::listing1(8);
  pb::IntMap p = producerRelation(scop, 0, 1);
  // R[i,j] reads A[i][2j] written by S[i][2j].
  pb::IntMap expected = pb::parseMap(
      "{ R[i, j] -> S[a, b] : 0 <= i < 3 and 0 <= j < 3 and a = i and "
      "b = 2 j }");
  EXPECT_EQ(p, expected);
}

TEST(ProducerRelationTest, NonInjectiveWriteThrows) {
  scop::ScopBuilder b("overwrite");
  std::size_t A = b.array("A", {8});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 8);
  S.write(A, {S.constant(0)}); // every iteration writes A[0]
  auto T = b.statement("T", 1);
  T.bound(0, 0, 8);
  T.write(A, {T.dim(0)});
  T.read(A, {T.constant(0)});
  scop::Scop scop = b.build();
  EXPECT_THROW((void)producerRelation(scop, 0, 1), Error);
}

TEST(PipelineMapTest, PaperExampleListing1N20) {
  // §4.1 gives the pipeline map for Listing 1 with N = 20:
  //   { S[i0,i1] -> R[o0,o1] : o0 = i0, i1 = 2*o1,
  //     0 <= i0 <= 8, 0 <= i1 <= 16 }.
  scop::Scop scop = testing::listing1(20);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap expected = pb::parseMap(
      "{ S[i0, i1] -> R[o0, o1] : 0 <= i0 <= 8 and 0 <= i1 <= 16 and "
      "i1 = 2 o1 and o0 = i0 }");
  EXPECT_EQ(t, expected);
}

TEST(PipelineMapTest, MatchesNaiveComposition) {
  for (pb::Value n : {8, 12, 20}) {
    scop::Scop scop = testing::listing1(n);
    EXPECT_EQ(pipelineMap(scop, 0, 1), pipelineMapNaive(scop, 0, 1))
        << "mismatch for N=" << n;
  }
  scop::Scop scop3 = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}})
    EXPECT_EQ(pipelineMap(scop3, s, t), pipelineMapNaive(scop3, s, t))
        << "mismatch for pair (" << s << ", " << t << ")";
}

TEST(PipelineMapTest, EmptyWhenNoSharedArray) {
  scop::ScopBuilder b("nodep");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)}).read(B, {T.dim(0)});
  scop::Scop scop = b.build();
  EXPECT_TRUE(pipelineMap(scop, 0, 1).empty());
}

TEST(PipelineMapTest, IsInjectiveAndSingleValued) {
  scop::Scop scop = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}}) {
    pb::IntMap m = pipelineMap(scop, s, t);
    EXPECT_TRUE(isSingleValued(m));
    EXPECT_TRUE(m.isInjective());
  }
}

TEST(PipelineMapTest, SafetyOfEveryPair) {
  // For every (i, j) in the pipeline map: every read of every iteration
  // j' lexle j that touches something written by the source must be
  // produced by a source iteration lexle i.
  scop::Scop scop = testing::listing1(12);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap p = producerRelation(scop, 0, 1);
  for (const auto& [i, j] : t.pairs()) {
    for (const auto& [jr, iw] : p.pairs()) {
      if (jr <= j) {
        EXPECT_LE(iw, i) << "pipeline pair (" << i << ", " << j
                         << ") does not cover read at " << jr;
      }
    }
  }
}

TEST(PipelineMapTest, MaximalityOfTargets) {
  // For every (i, j) in the pipeline map, iteration j+1 (the next target
  // iteration in lex order, if any) must require a source iteration
  // beyond i — otherwise j would not be maximal.
  scop::Scop scop = testing::listing1(12);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap p = producerRelation(scop, 0, 1);
  pb::IntMap h = lastRequirementMap(p);
  const pb::IntTupleSet hDomain = h.domain();
  const auto& targets = hDomain.points();
  for (const auto& [i, j] : t.pairs()) {
    auto it = std::upper_bound(targets.begin(), targets.end(), j);
    if (it == targets.end())
      continue;
    std::optional<Tuple> next = singleImageOf(h, *it);
    ASSERT_TRUE(next.has_value());
    EXPECT_GT(*next, i) << "target " << j << " is not maximal for source "
                        << i;
  }
}

TEST(LastRequirementTest, MonotoneOverTargetOrder) {
  scop::Scop scop = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}}) {
    pb::IntMap h = lastRequirementMap(producerRelation(scop, s, t));
    Tuple prev;
    bool first = true;
    for (const auto& [j, i] : h.pairs()) {
      if (!first) {
        EXPECT_GE(i, prev);
      }
      prev = i;
      first = false;
    }
  }
}

TEST(LastRequirementTest, CoversDomainOfProducer) {
  scop::Scop scop = testing::listing1(10);
  pb::IntMap p = producerRelation(scop, 0, 1);
  pb::IntMap h = lastRequirementMap(p);
  EXPECT_EQ(h.domain(), p.domain());
  EXPECT_TRUE(isSingleValued(h));
}

/// The pipeline map through the explicit composition P = Wr^-1(Rd), as
/// pipelineMap computed it before its last-writer table: H = the running
/// lexmax of P, T = lexmax(H^-1). Empty (or the injectivity throw) exactly
/// when pipelineMap's is.
pb::IntMap compositionPipelineMap(const scop::AccessRelations& rel,
                                  std::size_t s, std::size_t t,
                                  bool allowNonInjective) {
  const pb::IntMap p = producerRelation(rel, s, t, allowNonInjective);
  if (p.empty())
    return pb::IntMap(rel.scop().statement(s).space(),
                      rel.scop().statement(t).space());
  return lastRequirementMap(p).inverse().lexmaxPerDomain();
}

/// pipelineMap against the composition for every ordered pair: the same
/// map, or the same injectivity throw. `naive` adds the literal D'
/// composition (quadratic, small SCoPs only).
void expectLastWriterMatches(const scop::Scop& scop, bool allowNonInjective,
                             bool naive, const std::string& what) {
  const scop::AccessRelations rel(scop);
  for (std::size_t t = 0; t < scop.numStatements(); ++t)
    for (std::size_t s = 0; s < t; ++s) {
      const std::string pair = what + " " + std::to_string(s) + "->" +
                               std::to_string(t);
      std::optional<pb::IntMap> expected;
      try {
        expected = compositionPipelineMap(rel, s, t, allowNonInjective);
      } catch (const Error&) {
        EXPECT_THROW((void)pipelineMap(rel, s, t, allowNonInjective), Error)
            << pair;
        continue;
      }
      EXPECT_EQ(pipelineMap(rel, s, t, allowNonInjective), *expected) << pair;
      if (naive) {
        EXPECT_EQ(pipelineMapNaive(rel, s, t, allowNonInjective), *expected)
            << pair;
      }
    }
}

TEST(LastWriterPipelineMapTest, MatchesTheCompositionOnTheCorpus) {
  for (const testing::CorpusProgram& p :
       testing::intervalCorpus({8, 16}, 4, 16, 6))
    expectLastWriterMatches(p.build(), p.reduction, false, p.name);
}

TEST(LastWriterPipelineMapTest, MatchesTheCompositionOnNonInjectiveFuzz) {
  std::size_t nonInjectiveScops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    bool nonInjective = false;
    const scop::Scop scop = testing::randomIntervalScop(seed, &nonInjective);
    nonInjectiveScops += nonInjective ? 1 : 0;
    for (const bool allow : {false, true})
      expectLastWriterMatches(scop, allow, true,
                              "seed " + std::to_string(seed) +
                                  (allow ? " allow" : " strict"));
  }
  EXPECT_GT(nonInjectiveScops, 50u);
}

} // namespace
} // namespace pipoly::pipeline
