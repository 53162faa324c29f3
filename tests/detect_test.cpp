#include "pipeline/detect.hpp"

#include "codegen/task_program.hpp"

#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "testing/fixtures.hpp"
#include "testing/legacy_blocking.hpp"
#include "testing/presburger_ops.hpp"

#include <gtest/gtest.h>

namespace pipoly::pipeline {
namespace {

using pb::Tuple;

TEST(DetectTest, Listing1HasOnePipelineMap) {
  scop::Scop scop = testing::listing1(12);
  PipelineInfo info = detectPipeline(scop);
  ASSERT_EQ(info.maps.size(), 1u);
  EXPECT_EQ(info.maps[0].srcIdx, 0u);
  EXPECT_EQ(info.maps[0].tgtIdx, 1u);
  EXPECT_TRUE(info.hasPipeline());
}

TEST(DetectTest, Listing3HasThreePipelineMaps) {
  scop::Scop scop = testing::listing3(16);
  PipelineInfo info = detectPipeline(scop);
  // (S,R), (S,U), (R,U).
  ASSERT_EQ(info.maps.size(), 3u);
}

TEST(DetectTest, BlockingIsTotalSingleValuedIdempotent) {
  scop::Scop scop = testing::listing3(16);
  PipelineInfo info = detectPipeline(scop);
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    const pb::IntMap sigma = testing::sigmaMap(scop, info, s);
    EXPECT_EQ(sigma.domain(), scop.statement(s).domain());
    EXPECT_TRUE(isSingleValued(sigma));
    for (const Tuple& rep : st.blockReps.points())
      EXPECT_EQ(singleImageOf(sigma, rep), rep);
  }
}

TEST(DetectTest, ExpansionPartitionsDomain) {
  scop::Scop scop = testing::listing3(16);
  PipelineInfo info = detectPipeline(scop);
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    const pb::IntMap expansion = testing::expansionMap(scop, info, s);
    std::size_t total = 0;
    for (const Tuple& rep : st.blockReps.points())
      total += imagesOf(expansion, rep).size();
    EXPECT_EQ(total, scop.statement(s).domain().size());
    ASSERT_EQ(st.blockStarts.size(), st.blockReps.size() + 1);
    EXPECT_EQ(st.blockStarts.front(), 0u);
    EXPECT_EQ(st.blockStarts.back(), scop.statement(s).domain().size());
  }
}

TEST(DetectTest, BlocksAreLexContiguous) {
  // Every block is a contiguous run in the lexicographic order of the
  // domain, ending at its representative.
  scop::Scop scop = testing::listing3(20);
  PipelineInfo info = detectPipeline(scop);
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const pb::IntMap sigma = testing::sigmaMap(scop, info, s);
    const auto& points = scop.statement(s).domain().points();
    Tuple prevRep;
    bool first = true;
    for (const Tuple& it : points) {
      Tuple rep = *singleImageOf(sigma, it);
      EXPECT_GE(rep, it);
      if (!first) {
        EXPECT_GE(rep, prevRep) << "blocks must be ordered";
      }
      prevRep = rep;
      first = false;
    }
  }
}

TEST(DetectTest, StatementWithoutPipelineBecomesSingleBlock) {
  scop::ScopBuilder b("solo");
  std::size_t A = b.array("A", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  scop::Scop scop = b.build();
  PipelineInfo info = detectPipeline(scop);
  EXPECT_FALSE(info.hasPipeline());
  EXPECT_EQ(info.statements[0].blockReps.size(), 1u);
  EXPECT_EQ(info.totalBlocks(), 1u);
}

TEST(DetectTest, OutDependencyIsIdentityOnBlockReps) {
  // Q_S^out: a finished block publishes its own representative, which is
  // the block's last iteration and the out tag of its task.
  scop::Scop scop = testing::listing1(12);
  PipelineInfo info = detectPipeline(scop);
  const codegen::TaskProgram prog = codegen::compilePipeline(scop);
  std::size_t task = 0;
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    for (std::size_t b = 0; b < st.blockReps.size(); ++b, ++task) {
      const Tuple rep = st.blockReps.points()[b];
      EXPECT_EQ(scop.statement(s).domain().points()[st.blockStarts[b + 1] - 1],
                rep);
      EXPECT_EQ(prog.tasks[task].out.tag, codegen::linearizeBlockVector(rep));
    }
  }
  EXPECT_EQ(task, prog.tasks.size());
}

TEST(DetectTest, InRequirementsPointToSourceBlockReps) {
  scop::Scop scop = testing::listing3(16);
  PipelineInfo info = detectPipeline(scop);
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    for (const InRequirement& req : info.statements[s].inRequirements) {
      const StatementPipelineInfo& src = info.statements[req.srcStmtIdx];
      EXPECT_TRUE(isSubsetOf(req.map.range(), src.blockReps))
          << "requirement of statement " << s << " is not a block rep of "
          << req.srcStmtIdx;
      EXPECT_TRUE(isSubsetOf(req.map.domain(), info.statements[s].blockReps));
    }
  }
}

/// The central safety theorem: for every cross-statement flow dependence
/// (i -> j), the block of j must require (directly, via the in-requirement
/// for that source) a source block that is >= the block of i.
void checkSafety(const scop::Scop& scop) {
  PipelineInfo info = detectPipeline(scop);
  for (std::size_t t = 0; t < scop.numStatements(); ++t) {
    for (std::size_t s = 0; s < t; ++s) {
      pb::IntMap flow = scop::flowDependences(scop, s, t);
      if (flow.empty())
        continue;
      const InRequirement* req = nullptr;
      for (const InRequirement& r : info.statements[t].inRequirements)
        if (r.srcStmtIdx == s)
          req = &r;
      ASSERT_NE(req, nullptr)
          << "no in-requirement for dependent pair (" << s << "," << t << ")";
      const pb::IntMap tgtSigma = testing::sigmaMap(scop, info, t);
      const pb::IntMap srcSigma = testing::sigmaMap(scop, info, s);
      for (const auto& [i, j] : flow.pairs()) {
        Tuple tgtBlock = *singleImageOf(tgtSigma, j);
        Tuple srcBlock = *singleImageOf(srcSigma, i);
        std::optional<Tuple> required = singleImageOf(req->map, tgtBlock);
        ASSERT_TRUE(required.has_value())
            << "block " << tgtBlock << " of stmt " << t
            << " reads from stmt " << s << " but has no requirement";
        EXPECT_GE(*required, srcBlock)
            << "dependence " << i << " -> " << j << " not covered";
      }
    }
  }
}

TEST(DetectTest, SafetyListing1) { checkSafety(testing::listing1(12)); }
TEST(DetectTest, SafetyListing1Larger) { checkSafety(testing::listing1(20)); }
TEST(DetectTest, SafetyListing3) { checkSafety(testing::listing3(16)); }
TEST(DetectTest, SafetyChain4) { checkSafety(testing::chain(4, 9)); }

/// Property sweep: random affine access patterns must always yield safe
/// pipeline info.
class DetectPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectPropertyTest, RandomScopIsSafe) {
  SplitMix64 rng(GetParam());
  const pb::Value n = 6 + static_cast<pb::Value>(rng.nextBelow(5));
  scop::ScopBuilder b("random");
  const std::size_t nests = 2 + rng.nextBelow(3);
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k), {4 * n, 4 * n}));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    // Read from one or two earlier arrays with random affine patterns.
    for (std::size_t r = 0; r < 1 + rng.nextBelow(2) && k > 0; ++r) {
      std::size_t srcArray = arrays[rng.nextBelow(k)];
      pb::Value ci = 1 + static_cast<pb::Value>(rng.nextBelow(3));
      pb::Value cj = 1 + static_cast<pb::Value>(rng.nextBelow(3));
      pb::Value oi = static_cast<pb::Value>(rng.nextBelow(3));
      pb::Value oj = static_cast<pb::Value>(rng.nextBelow(3));
      S.read(srcArray, {ci * S.dim(0) + oi, cj * S.dim(1) + oj});
    }
  }
  checkSafety(b.build());
}

INSTANTIATE_TEST_SUITE_P(RandomSweeps, DetectPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

} // namespace
} // namespace pipoly::pipeline
