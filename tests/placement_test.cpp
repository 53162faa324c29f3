// Tests for the stage partitioner (rt/placement.hpp): the comm-weighted
// contiguous DP against a brute-force contiguous-partition oracle, and
// the edge cases the channel engine depends on — no stage, one stage and
// more workers than stages.

#include "runtime/placement.hpp"
#include "testing/placement_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace pipoly::rt {
namespace {

std::vector<StageEdge> chainEdges(std::size_t stages, std::uint64_t bytes) {
  std::vector<StageEdge> edges;
  for (std::size_t s = 0; s + 1 < stages; ++s)
    edges.push_back({s, s + 1, bytes});
  return edges;
}

TEST(PlacementTest, SingleStageLandsOnOneWorkerEverywhereElseEmpty) {
  const std::vector<std::size_t> tasks = {10};
  for (unsigned workers : {1u, 4u}) {
    const Placement p = placeStages(tasks, workers, chainEdges(1, 8));
    ASSERT_EQ(p.ownedStages.size(), workers);
    EXPECT_EQ(p.ownedStages[0], (std::vector<std::size_t>{0}));
    for (unsigned w = 1; w < workers; ++w)
      EXPECT_TRUE(p.ownedStages[w].empty()) << "worker " << w;
    EXPECT_EQ(p.maxLoad, 10u);
    EXPECT_EQ(p.crossWorkerBytes, 0u);
  }
}

TEST(PlacementTest, MoreWorkersThanStagesLeavesTrailingWorkersIdle) {
  const std::vector<std::size_t> tasks = {4, 4, 4};
  const Placement p = placeStages(tasks, 8, chainEdges(3, 16));
  ASSERT_EQ(p.ownedStages.size(), 8u);
  std::size_t owned = 0, nonEmpty = 0;
  for (const std::vector<std::size_t>& ws : p.ownedStages) {
    owned += ws.size();
    if (!ws.empty())
      ++nonEmpty;
  }
  EXPECT_EQ(owned, 3u);    // every stage owned exactly once
  EXPECT_EQ(nonEmpty, 3u); // one stage per busy worker
  EXPECT_EQ(p.maxLoad, 4u);
}

TEST(PlacementTest, ZeroStagesYieldsAnEmptyPlacement) {
  const Placement p = placeStages({}, 4, {});
  EXPECT_EQ(p.maxLoad, 0u);
  EXPECT_TRUE(p.workerOfStage.empty());
}

TEST(PlacementTest, UmaPlacementReachesTheBruteForceOptimum) {
  // placeStages is the comm-weighted contiguous DP: its cuts must reach
  // the lexicographic (maxLoad, severed bytes) optimum over every
  // contiguous partition, here enumerated outright for up to 8 stages
  // and 4 workers. Stage counts, loads and edges come from a fixed
  // linear congruential stream, plus one hand-written case with long
  // forward edges.
  std::uint64_t state = 12345;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  struct Case {
    std::vector<std::size_t> tasks;
    std::vector<StageEdge> edges;
  };
  std::vector<Case> cases;
  {
    Case fixed{{5, 9, 2, 7, 7, 1}, chainEdges(6, 64)};
    fixed.edges.push_back({0, 3, 128});
    fixed.edges.push_back({2, 5, 16});
    cases.push_back(fixed);
  }
  for (int k = 0; k < 200; ++k) {
    Case c;
    const std::size_t stages = 1 + next(8);
    for (std::size_t s = 0; s < stages; ++s)
      c.tasks.push_back(1 + next(9));
    for (std::size_t s = 0; s + 1 < stages; ++s)
      c.edges.push_back({s, s + 1, 1 + next(200)});
    for (std::size_t e = next(3); e > 0 && stages > 2; --e) {
      const std::size_t src = next(stages - 2);
      const std::size_t tgt = src + 2 + next(stages - src - 2);
      c.edges.push_back({src, tgt, 1 + next(200)});
    }
    cases.push_back(c);
  }
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    for (unsigned workers = 1; workers <= 4; ++workers) {
      const Placement p = placeStages(c.tasks, workers, c.edges);
      // Contiguous, ascending, every stage owned once, and no idle worker
      // ahead of a busy one.
      std::vector<std::size_t> begins;
      std::size_t expectedStage = 0;
      for (std::size_t w = 0; w < p.ownedStages.size(); ++w) {
        const std::vector<std::size_t>& ws = p.ownedStages[w];
        if (ws.empty())
          continue;
        begins.push_back(ws.front());
        for (const std::size_t s : ws) {
          ASSERT_EQ(s, expectedStage++) << "case " << k;
          EXPECT_EQ(p.workerOfStage[s], w) << "case " << k;
        }
      }
      ASSERT_EQ(expectedStage, c.tasks.size()) << "case " << k;
      ASSERT_EQ(begins.size(),
                std::min<std::size_t>(workers, c.tasks.size()));
      const testing::CutCost got = testing::cutCost(c.tasks, c.edges, begins);
      EXPECT_EQ(got.maxLoad, p.maxLoad) << "case " << k;
      EXPECT_EQ(got, testing::bruteForceOptimum(c.tasks, workers, c.edges))
          << "case " << k << ", " << workers << " workers";
      std::uint64_t crossWorker = 0;
      for (const StageEdge& e : c.edges)
        if (p.workerOfStage[e.src] != p.workerOfStage[e.tgt])
          crossWorker += e.bytes;
      EXPECT_EQ(p.crossWorkerBytes, crossWorker) << "case " << k;
    }
  }
}

} // namespace
} // namespace pipoly::rt
