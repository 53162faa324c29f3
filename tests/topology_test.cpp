// Tests for the hardware-topology model (rt::Topology) and the stage
// partitioners (rt/placement.hpp): synthetic presets, the strict
// JSON-spec parse-and-reject contract (including the empty-file case
// pipolyc turns into exit 2), uniform()/resized()/costClass() semantics,
// and the placement edge cases the channel engine depends on — one
// stage, more workers than stages, more domains than stages, the uma
// placement against a brute-force contiguous-partition oracle, and
// placement diagnostics that depend only on the owned stages and the
// topology.

#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "testing/placement_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipoly::rt {
namespace {

// ---------------------------------------------------------------- presets

TEST(TopologyTest, UmaPresetIsOneUniformDomain) {
  const Topology t = Topology::uma(4);
  t.validate();
  EXPECT_EQ(t.numDomains(), 1u);
  EXPECT_EQ(t.numWorkers(), 4u);
  EXPECT_TRUE(t.uniform());
  EXPECT_DOUBLE_EQ(t.costClass(0, 0), 1.0);
}

TEST(TopologyTest, Numa2SplitsWorkersEvenlyAcrossTwoDomains) {
  const Topology t = Topology::numa2(4, 4.0);
  t.validate();
  EXPECT_EQ(t.numDomains(), 2u);
  EXPECT_EQ(t.domainOfWorker, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_FALSE(t.uniform());
  EXPECT_DOUBLE_EQ(t.costClass(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.costClass(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(t.costClass(1, 0), 4.0);
  // Fewer worker slots than domains: the preset keeps one slot per
  // domain so no domain is structurally starved.
  EXPECT_EQ(Topology::numa2(1).numWorkers(), 2u);
}

TEST(TopologyTest, RingClassesGrowWithHopDistance) {
  const Topology t = Topology::ring(8, 4, 1.0);
  t.validate();
  EXPECT_EQ(t.numDomains(), 4u);
  EXPECT_DOUBLE_EQ(t.costClass(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.costClass(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.costClass(0, 2), 3.0); // two hops, the far side
  EXPECT_DOUBLE_EQ(t.costClass(0, 3), 2.0); // wraps the short way
  EXPECT_DOUBLE_EQ(t.costClass(1, 3), 3.0);
}

TEST(TopologyTest, PresetLookupKnowsTheThreeNamesOnly) {
  EXPECT_TRUE(Topology::preset("uma", 2).has_value());
  EXPECT_TRUE(Topology::preset("2x-numa", 2).has_value());
  EXPECT_TRUE(Topology::preset("ring", 2).has_value());
  EXPECT_FALSE(Topology::preset("torus", 2).has_value());
  EXPECT_FALSE(Topology::preset("", 2).has_value());
}

TEST(TopologyTest, DetectHostNeverThrowsAndValidates) {
  // On non-NUMA hosts (CI) this is the uma fallback; on NUMA hosts the
  // sysfs shape. Either way the result must validate.
  const Topology t = Topology::detectHost(4);
  t.validate();
  EXPECT_GE(t.numDomains(), 1u);
  EXPECT_EQ(t.numWorkers() >= 1u, true);
}

// ------------------------------------------------------------- semantics

TEST(TopologyTest, CostClassIsUmaOutOfRange) {
  const Topology t; // default-constructed: no domains at all
  EXPECT_DOUBLE_EQ(t.costClass(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.costClass(7, 3), 1.0);
}

TEST(TopologyTest, UniformMeansPlacementCannotDistinguishDomains) {
  Topology t = Topology::numa2(4, 4.0);
  EXPECT_FALSE(t.uniform());
  // Equal classes everywhere — even off-diagonal — is uniform: domain
  // boundaries carry no price.
  t.classCost = {{2.0, 2.0}, {2.0, 2.0}};
  EXPECT_TRUE(t.uniform());
  EXPECT_TRUE(Topology::uma(8).uniform());
}

TEST(TopologyTest, ResizedRespreadsWorkersDomainMajor) {
  const Topology t = Topology::numa2(2).resized(6);
  EXPECT_EQ(t.numWorkers(), 6u);
  EXPECT_EQ(t.domainOfWorker, (std::vector<unsigned>{0, 0, 0, 1, 1, 1}));
  // Odd split: the earlier domain takes the extra slot.
  EXPECT_EQ(Topology::numa2(2).resized(3).domainOfWorker,
            (std::vector<unsigned>{0, 0, 1}));
}

TEST(TopologyTest, ValidateRejectsInconsistentModels) {
  Topology t;
  EXPECT_THROW(t.validate(), std::runtime_error); // empty cost matrix

  t = Topology::numa2(4);
  t.classCost[0].pop_back(); // non-square
  EXPECT_THROW(t.validate(), std::runtime_error);

  t = Topology::numa2(4);
  t.classCost[0][1] = 0.0; // non-positive class
  EXPECT_THROW(t.validate(), std::runtime_error);

  t = Topology::numa2(4);
  t.domainOfWorker[3] = 2; // domain outside the matrix
  EXPECT_THROW(t.validate(), std::runtime_error);

  t = Topology::numa2(4);
  t.cpusOfDomain = {{0, 1}}; // cpu lists for only one of two domains
  EXPECT_THROW(t.validate(), std::runtime_error);
}

// ------------------------------------------------------------- JSON spec

TEST(TopologyJsonTest, ParsesTheFullSpecGrammar) {
  const Topology t = Topology::fromJson(
      R"({"name": "testbox", "domains": [[0, 1], [2, 3]],
          "cost": [[1, 4], [4, 1]], "cpus": [[0, 2], [1, 3]]})");
  EXPECT_EQ(t.name, "testbox");
  EXPECT_EQ(t.domainOfWorker, (std::vector<unsigned>{0, 0, 1, 1}));
  EXPECT_DOUBLE_EQ(t.costClass(0, 1), 4.0);
  ASSERT_EQ(t.cpusOfDomain.size(), 2u);
  EXPECT_EQ(t.cpusOfDomain[0], (std::vector<int>{0, 2}));
  EXPECT_FALSE(t.uniform());
}

TEST(TopologyJsonTest, WorkerIdsMayArriveOutOfOrder) {
  // "domains" partitions ids 0..W-1; listing them scattered is legal as
  // long as each appears exactly once.
  const Topology t = Topology::fromJson(
      R"({"domains": [[3, 0], [1, 2]], "cost": [[1, 2], [2, 1]]})");
  EXPECT_EQ(t.domainOfWorker, (std::vector<unsigned>{0, 1, 1, 0}));
}

TEST(TopologyJsonTest, StrictlyRejectsMalformedSpecs) {
  // The parse-and-reject contract pipolyc's exit-2 diagnostic rests on:
  // every malformed shape throws, nothing is silently defaulted.
  const char* bad[] = {
      "",                                                   // empty
      "{",                                                  // truncated
      "[]",                                                 // not an object
      R"({"domains": [[0]], "cost": [[1]]} trailing)",      // garbage after
      R"({"domains": [[0]], "cost": [[1]], "x": 1})",       // unknown key
      R"({"cost": [[1]]})",                                 // no domains
      R"({"domains": [[0]]})",                              // no cost
      R"({"domains": [], "cost": []})",                     // zero domains
      R"({"domains": [[]], "cost": [[1]]})",                // no workers
      R"({"domains": [[0, 0]], "cost": [[1]]})",            // duplicate id
      R"({"domains": [[0, 2]], "cost": [[1]]})",            // gap in ids
      R"({"domains": [[-1]], "cost": [[1]]})",              // negative id
      R"({"domains": [[0.5]], "cost": [[1]]})",             // fractional id
      R"({"domains": [[1e300]], "cost": [[1]]})",           // id past int
      R"({"domains": [[-1e300]], "cost": [[1]]})",          // id below int
      R"({"domains": [[0], [1]], "cost": [[1]]})",          // cost not DxD
      R"({"domains": [[0]], "cost": [[1, 2]]})",            // non-square
      R"({"domains": [[0]], "cost": [[0]]})",               // zero class
      R"({"domains": [[0]], "cost": [[-2]]})",              // negative class
      R"({"domains": [[0]], "cost": [[1]], "cpus": [[0], [1]]})", // extra cpus
      R"({"domains": [[0]], "cost": [[1]], "cpus": [[1e300]]})",  // cpu past int
      R"({"domains": [[0]], "cost": [[1]], "cpus": [[-1e300]]})", // cpu below int
      R"({"domains": [[0]], "domains": [[0]], "cost": [[1]]})",   // dup key
      R"({"name": "a\nb", "domains": [[0]], "cost": [[1]]})",     // escape
  };
  for (const char* text : bad)
    EXPECT_THROW(Topology::fromJson(text), std::runtime_error) << text;
}

TEST(TopologyJsonTest, FromFileRejectsMissingAndEmptyFiles) {
  EXPECT_THROW(Topology::fromFile("/nonexistent/topology.json"),
               std::runtime_error);

  const std::string path = ::testing::TempDir() + "pipoly_empty_topo.json";
  { std::ofstream out(path); } // zero bytes
  EXPECT_THROW(Topology::fromFile(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TopologyJsonTest, FromFileReadsASpecAndNamesItAfterThePath) {
  const std::string path = ::testing::TempDir() + "pipoly_topo.json";
  {
    std::ofstream out(path);
    out << R"({"domains": [[0], [1]], "cost": [[1, 3], [3, 1]]})";
  }
  const Topology t = Topology::fromFile(path);
  EXPECT_EQ(t.name, path); // unnamed specs take the file name
  EXPECT_EQ(t.numDomains(), 2u);
  EXPECT_DOUBLE_EQ(t.costClass(1, 0), 3.0);
  std::remove(path.c_str());
}

TEST(TopologyJsonTest, FromSpecResolvesPresetsThenFiles) {
  EXPECT_EQ(Topology::fromSpec("2x-numa", 4).numDomains(), 2u);
  EXPECT_EQ(Topology::fromSpec("uma", 3).numWorkers(), 3u);
  Topology host = Topology::fromSpec("host", 4);
  host.validate();
  EXPECT_THROW(Topology::fromSpec("no-such-preset-or-file", 4),
               std::runtime_error);
}

// ------------------------------------------------------------- placement

std::vector<StageEdge> chainEdges(std::size_t stages, std::uint64_t bytes) {
  std::vector<StageEdge> edges;
  for (std::size_t s = 0; s + 1 < stages; ++s)
    edges.push_back({s, s + 1, bytes});
  return edges;
}

TEST(PlacementTest, SingleStageLandsOnOneWorkerEverywhereElseEmpty) {
  const std::vector<std::size_t> tasks = {10};
  for (unsigned workers : {1u, 4u}) {
    const Placement p =
        placeStages(tasks, workers, chainEdges(1, 8), Topology::uma(workers));
    ASSERT_EQ(p.ownedStages.size(), workers);
    EXPECT_EQ(p.ownedStages[0], (std::vector<std::size_t>{0}));
    for (unsigned w = 1; w < workers; ++w)
      EXPECT_TRUE(p.ownedStages[w].empty()) << "worker " << w;
    EXPECT_EQ(p.maxLoad, 10u);
    EXPECT_EQ(p.crossWorkerBytes, 0u);
  }
  // On a topology the tie between domains is broken deterministically;
  // the invariant is exactly one owner, zero traffic.
  const Placement p =
      placeStages(tasks, 4, chainEdges(1, 8), Topology::numa2(4));
  std::size_t owners = 0;
  for (const std::vector<std::size_t>& ws : p.ownedStages)
    if (!ws.empty()) {
      ++owners;
      EXPECT_EQ(ws, (std::vector<std::size_t>{0}));
    }
  EXPECT_EQ(owners, 1u);
  EXPECT_EQ(p.maxLoad, 10u);
  EXPECT_EQ(p.crossDomainBytes, 0u);
}

TEST(PlacementTest, MoreWorkersThanStagesLeavesTrailingWorkersIdle) {
  const std::vector<std::size_t> tasks = {4, 4, 4};
  const Placement p =
      placeStages(tasks, 8, chainEdges(3, 16), Topology::uma(8));
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

TEST(PlacementTest, MoreDomainsThanStagesStillPlacesEveryStage) {
  // ring: 4 domains, but only 2 stages — some domains must stay empty and
  // the partitioner must not wedge or drop a stage.
  const std::vector<std::size_t> tasks = {6, 6};
  const Topology ring = Topology::ring(8, 4, 1.0);
  const Placement p = placeStages(tasks, 8, chainEdges(2, 32), ring);
  ASSERT_EQ(p.workerOfStage.size(), 2u);
  std::size_t owned = 0;
  for (const std::vector<std::size_t>& ws : p.ownedStages)
    owned += ws.size();
  EXPECT_EQ(owned, 2u);
  // The heavy edge should stay domain-local or adjacent — never pay the
  // far side of the ring (class 3) when a one-hop placement exists.
  EXPECT_LE(ring.costClass(p.domainOfStage[0], p.domainOfStage[1]), 2.0);
}

TEST(PlacementTest, ZeroStagesYieldsAnEmptyPlacement) {
  const Placement u = placeStages({}, 4, {}, Topology::uma(4));
  EXPECT_EQ(u.maxLoad, 0u);
  EXPECT_TRUE(u.workerOfStage.empty());
  const Placement n = placeStages({}, 4, {}, Topology::numa2(4));
  EXPECT_TRUE(n.workerOfStage.empty());
}

TEST(PlacementTest, UmaPlacementReachesTheBruteForceOptimum) {
  // On a uniform topology placeStages is the comm-weighted contiguous
  // DP: its cuts must reach the lexicographic (maxLoad, severed bytes)
  // optimum over every contiguous partition, here enumerated outright
  // for up to 8 stages and 4 workers. Stage counts, loads and edges come
  // from a fixed linear congruential stream, plus one hand-written case
  // with long forward edges.
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
      const Placement p =
          placeStages(c.tasks, workers, c.edges, Topology::uma(workers));
      // Contiguous, ascending, every stage owned once, and no idle worker
      // ahead of a busy one.
      std::vector<std::size_t> begins;
      std::size_t expectedStage = 0;
      for (const std::vector<std::size_t>& ws : p.ownedStages) {
        if (ws.empty())
          continue;
        begins.push_back(ws.front());
        for (const std::size_t s : ws)
          ASSERT_EQ(s, expectedStage++) << "case " << k;
      }
      ASSERT_EQ(expectedStage, c.tasks.size()) << "case " << k;
      ASSERT_EQ(begins.size(),
                std::min<std::size_t>(workers, c.tasks.size()));
      const testing::CutCost got = testing::cutCost(c.tasks, c.edges, begins);
      EXPECT_EQ(got.maxLoad, p.maxLoad) << "case " << k;
      EXPECT_EQ(got, testing::bruteForceOptimum(c.tasks, workers, c.edges))
          << "case " << k << ", " << workers << " workers";
    }
  }
}

TEST(PlacementTest, DiagnosticsDependOnlyOnOwnedStagesAndTopology) {
  // Whatever cuts the partitioner chose, a placement's stage->domain map
  // and its diagnostics are what its owned stages cost on the topology it
  // was given — recomputed by testing::priceOn from ownedStages and the
  // edges alone. One heavy edge and light traffic elsewhere, so on numa
  // load balance pays for crossing the domain boundary and the class
  // pricing is really exercised.
  const std::vector<std::size_t> tasks = {5, 9, 2, 7, 7, 1};
  std::vector<StageEdge> edges = chainEdges(6, 1);
  edges[0].bytes = 1000;
  edges.push_back({0, 3, 2});
  constexpr unsigned kWorkers = 4;
  const Topology numa = Topology::numa2(kWorkers, 4.0);
  const Topology flat = Topology::numa2(kWorkers, 1.0); // domains, one class
  const Topology uma = Topology::uma(kWorkers);
  ASSERT_TRUE(flat.uniform());
  for (const Topology* t : {&numa, &flat, &uma}) {
    const Placement p = placeStages(tasks, kWorkers, edges, *t);
    const Placement priced = testing::priceOn(p, tasks, edges, *t);
    EXPECT_EQ(p.workerOfStage, priced.workerOfStage) << t->name;
    EXPECT_EQ(p.domainOfStage, priced.domainOfStage) << t->name;
    EXPECT_EQ(p.maxLoad, priced.maxLoad) << t->name;
    EXPECT_EQ(p.crossWorkerBytes, priced.crossWorkerBytes) << t->name;
    EXPECT_EQ(p.crossDomainBytes, priced.crossDomainBytes) << t->name;
    EXPECT_DOUBLE_EQ(p.commCost, priced.commCost) << t->name;
    if (t == &numa) {
      EXPECT_DOUBLE_EQ(p.objective, priced.objective);
      EXPECT_GT(p.crossDomainBytes, 0u);
    }
  }
}

TEST(PlacementTest, RemoteClassPushesHeavyEdgesDomainLocal) {
  // Two heavy-talking stage pairs and a cheap link between them. With 4
  // workers over 2 domains, pure load balance would cut anywhere; the
  // topology objective must cut at the cheap edge so both heavy edges
  // stay inside a domain.
  const std::vector<std::size_t> tasks = {4, 4, 4, 4};
  const std::vector<StageEdge> edges = {
      {0, 1, 1000}, {1, 2, 1}, {2, 3, 1000}};
  const Topology numa = Topology::numa2(4, 8.0);
  const Placement p = placeStages(tasks, 4, edges, numa);
  EXPECT_EQ(p.domainOfStage[0], p.domainOfStage[1])
      << "heavy edge 0->1 crosses domains";
  EXPECT_EQ(p.domainOfStage[2], p.domainOfStage[3])
      << "heavy edge 2->3 crosses domains";
  // At most the cheap middle edge may cross; the objective actually
  // packs everything into one domain (cross-worker class-1 traffic beats
  // class-8 traffic even at half the parallelism).
  EXPECT_LE(p.crossDomainBytes, 1u);
  EXPECT_LE(p.commCost,
            1000.0) // never pays a heavy edge at the remote class
      << "objective " << p.objective;
}

} // namespace
} // namespace pipoly::rt
