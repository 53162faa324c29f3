// Tests for pipeline::analyzeCommunication: per-edge volumes validated
// against the brute-force counting oracle on every Table-9 program (the
// parametric, separable closed-form, fast path included), every EdgeComm
// field against the per-point legacy pass over a matrix of programs and
// detection options, capacity/peak invariants, the CommInfo lookup API
// the channel backend builds its ring sizes from, and the access
// relations detection hands on: comm over them equals comm over a fresh
// table, never writes them, and runs on copies of one info from several
// threads at once.

#include "pipeline/comm.hpp"

#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"
#include "testing/interval_corpus.hpp"
#include "testing/legacy_comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pipoly::pipeline {
namespace {

using pipoly::testing::commVolumeNaive;
using pipoly::testing::legacyAnalyzeCommunication;

TEST(CommVolumeTest, EdgeVolumesMatchTheBruteForceOracleOnTable9) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    const PipelineInfo info = detectPipeline(scop);
    const CommInfo comm = analyzeCommunication(scop, info);
    ASSERT_EQ(comm.edges.size(), info.maps.size()) << spec.name;

    for (const EdgeComm& e : comm.edges) {
      ASSERT_LT(e.mapIdx, info.maps.size()) << spec.name;
      EXPECT_EQ(e.srcIdx, info.maps[e.mapIdx].srcIdx) << spec.name;
      EXPECT_EQ(e.tgtIdx, info.maps[e.mapIdx].tgtIdx) << spec.name;
      EXPECT_EQ(e.elements, commVolumeNaive(scop, e.srcIdx, e.tgtIdx))
          << spec.name << " edge " << e.srcIdx << "->" << e.tgtIdx;
      EXPECT_EQ(e.totalBytes, e.elements * 8) << spec.name;
      EXPECT_LE(e.maxBlockBytes, e.totalBytes) << spec.name;
      EXPECT_GT(e.elements, 0u)
          << spec.name << ": a pipeline edge moves at least one element";
    }
  }
}

TEST(CommVolumeTest, ParametricFastPathEqualsTheExplicitIntersection) {
  // The oracle test above checks every edge's elements against
  // commVolumeNaive, closed-form edges included. The suite's affine
  // accesses are separable, so the closed form must actually be taken
  // somewhere — otherwise that check never reaches it.
  bool anyParametric = false;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    for (const EdgeComm& e :
         analyzeCommunication(scop, detectPipeline(scop)).edges)
      anyParametric = anyParametric || e.parametric;
  }
  EXPECT_TRUE(anyParametric);

  // Strided reads with offsets of either sign: the readers box clips
  // through ceil/floor division, and U's negative iterations put negative
  // numerators under both.
  scop::ScopBuilder b("strided_offsets");
  const std::size_t A = b.array("A", {16, 22});
  const std::size_t B = b.array("B", {9, 9});
  const std::size_t C = b.array("C", {8, 3});
  auto S = b.statement("S", 2);
  S.bound(0, 1, 12).bound(1, 3, 20).write(A, {S.dim(0), S.dim(1)});
  auto T = b.statement("T", 2);
  T.bound(0, 2, 9).bound(1, 2, 9).write(B, {T.dim(0), T.dim(1)});
  T.read(A, {2 * T.dim(0) - 3, 3 * T.dim(1) - 5});
  auto U = b.statement("U", 2);
  U.bound(0, -2, 6).bound(1, -3, 0).write(C, {U.dim(0) + 2, U.dim(1) + 3});
  U.read(A, {2 * U.dim(0) + 4, 3 * U.dim(1) + 24});
  const scop::Scop scop = b.build();
  const CommInfo comm = analyzeCommunication(scop, detectPipeline(scop));
  ASSERT_EQ(comm.edges.size(), 2u);
  for (const EdgeComm& e : comm.edges) {
    EXPECT_TRUE(e.parametric) << e.srcIdx << "->" << e.tgtIdx;
    EXPECT_EQ(e.elements, commVolumeNaive(scop, e.srcIdx, e.tgtIdx))
        << e.srcIdx << "->" << e.tgtIdx;
  }
}

/// The oracle matrix's programs: Table 9 at N = 8 and 16, the matmul
/// chains of length 2-4 in every variant, the reduction grid, and a pair
/// of loop-free statements.
std::vector<std::pair<std::string, scop::Scop>> oraclePrograms() {
  std::vector<std::pair<std::string, scop::Scop>> out;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    for (pb::Value n : {8, 16})
      out.emplace_back(spec.name + " N=" + std::to_string(n),
                       kernels::buildProgram(spec, n));
  for (kernels::MatmulVariant v :
       {kernels::MatmulVariant::NMM, kernels::MatmulVariant::NMMT,
        kernels::MatmulVariant::GNMM, kernels::MatmulVariant::GNMMT})
    for (std::size_t len : {std::size_t{2}, std::size_t{3}, std::size_t{4}})
      out.emplace_back(kernels::variantName(v) + std::to_string(len),
                       kernels::matmulChain(v, len, 8));
  for (const kernels::ReductionKernelSpec& k : kernels::reductionKernels())
    out.emplace_back(k.name, k.build(16));
  out.emplace_back("scalar_pair", testing::scalarPair());
  return out;
}

void expectSameEdges(const CommInfo& got, const CommInfo& want,
                     const std::string& what) {
  ASSERT_EQ(got.edges.size(), want.edges.size()) << what;
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    const EdgeComm& g = got.edges[i];
    const EdgeComm& w = want.edges[i];
    const std::string edge = what + " edge " + std::to_string(i);
    EXPECT_EQ(g.srcIdx, w.srcIdx) << edge;
    EXPECT_EQ(g.tgtIdx, w.tgtIdx) << edge;
    EXPECT_EQ(g.mapIdx, w.mapIdx) << edge;
    EXPECT_EQ(g.elements, w.elements) << edge;
    EXPECT_EQ(g.totalBytes, w.totalBytes) << edge;
    EXPECT_EQ(g.maxBlockBytes, w.maxBlockBytes) << edge;
    EXPECT_EQ(g.peakInFlightTokens, w.peakInFlightTokens) << edge;
    EXPECT_EQ(g.peakInFlightBytes, w.peakInFlightBytes) << edge;
    EXPECT_EQ(g.capacitySlots, w.capacitySlots) << edge;
    EXPECT_EQ(g.parametric, w.parametric) << edge;
  }
}

TEST(CommOracleTest, EveryFieldMatchesTheLegacyPassAcrossTheMatrix) {
  std::vector<std::pair<std::string, DetectOptions>> configs(4);
  configs[0].first = "default";
  configs[1].first = "coarsening=3";
  configs[1].second.coarsening = 3;
  configs[2].first = "FirstMapOnly";
  configs[2].second.integration = DetectOptions::Integration::FirstMapOnly;
  configs[3].first = "reduction=Off";
  configs[3].second.reductionMode = DetectOptions::ReductionMode::Off;
  configs[3].second.allowNonInjectiveWrites = true;

  std::size_t edges = 0;
  for (const auto& [name, scop] : oraclePrograms()) {
    for (const auto& [config, options] : configs) {
      const std::string what = name + " " + config;
      const PipelineInfo info = detectPipeline(scop, options);
      const CommInfo got = analyzeCommunication(scop, info);
      expectSameEdges(got, legacyAnalyzeCommunication(scop, info), what);
      edges += got.edges.size();
    }
  }
  // Guards the matrix itself: a builder regression that empties it would
  // pass the loop above vacuously.
  EXPECT_GT(edges, 300u);
}

TEST(CommCapacityTest, CapacityCoversThePeakAndRespectsTheFloor) {
  // Two slots keep one block in flight while the next is produced.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    const CommInfo comm = analyzeCommunication(scop, detectPipeline(scop));
    for (const EdgeComm& e : comm.edges)
      EXPECT_EQ(e.capacitySlots, std::max(2u, e.peakInFlightTokens))
          << spec.name;
  }
}

TEST(CommCapacityTest, ElementSizeScalesBytesNotTokens) {
  // The kernel suite's arrays hold 64-bit integers: every byte count is
  // 8 bytes per element, while the token counts know nothing of bytes.
  const kernels::ProgramSpec& spec = kernels::programByName("P5");
  const scop::Scop scop = kernels::buildProgram(spec, 8);
  const CommInfo comm = analyzeCommunication(scop, detectPipeline(scop));
  ASSERT_FALSE(comm.edges.empty());
  std::uint64_t elements = 0;
  for (const EdgeComm& e : comm.edges) {
    EXPECT_EQ(e.totalBytes, 8 * e.elements);
    EXPECT_EQ(e.maxBlockBytes % 8, 0u);
    EXPECT_EQ(e.peakInFlightBytes % 8, 0u);
    elements += e.elements;
  }
  EXPECT_EQ(comm.totalBytes(), 8 * elements);
}

TEST(CommLookupTest, EdgeAndCapacityForResolveStatementPairs) {
  const kernels::ProgramSpec& spec = kernels::programByName("P1");
  const scop::Scop scop = kernels::buildProgram(spec, 8);
  const PipelineInfo info = detectPipeline(scop);
  const CommInfo comm = analyzeCommunication(scop, info);
  ASSERT_FALSE(comm.edges.empty());

  const EdgeComm& first = comm.edges.front();
  const EdgeComm* found = comm.edge(first.srcIdx, first.tgtIdx);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->elements, first.elements);
  EXPECT_EQ(comm.capacityFor(first.srcIdx, first.tgtIdx, 99),
            first.capacitySlots);

  // A pair with no pipeline edge falls back to the caller's default.
  EXPECT_EQ(comm.edge(97, 98), nullptr);
  EXPECT_EQ(comm.capacityFor(97, 98, 99u), 99u);
}

// --- The access relations detection hands on ---------------------------

/// Which relations a shared table holds.
std::vector<bool> builtMask(const scop::BuiltRelations& rels) {
  std::vector<bool> mask;
  for (const auto* side : {&rels.writes, &rels.reads})
    for (const std::optional<pb::IntMap>& rel : *side)
      mask.push_back(rel.has_value());
  return mask;
}

/// Comm over detection's relations equals comm over a fresh table, and
/// leaves the shared relations exactly as detection built them.
void expectSharedEqualsFresh(const scop::Scop& scop,
                             const DetectOptions& options,
                             const std::string& what) {
  const PipelineInfo info = detectPipeline(scop, options);
  ASSERT_NE(info.relations, nullptr) << what;
  const std::vector<bool> before = builtMask(*info.relations);
  const CommInfo shared = analyzeCommunication(scop, info);
  EXPECT_EQ(builtMask(*info.relations), before) << what;
  PipelineInfo fresh = info;
  fresh.relations = nullptr;
  expectSameEdges(shared, analyzeCommunication(scop, fresh), what);
}

TEST(CommSharedRelationsTest, SharedRelationsGiveTheFreshResultOnTheCorpus) {
  for (const testing::CorpusProgram& p :
       testing::intervalCorpus({8, 16}, 4, 8, 6)) {
    const scop::Scop scop = p.build();
    for (const testing::CorpusSetting& s :
         testing::intervalSettings(p.reduction))
      expectSharedEqualsFresh(scop, s.options, p.name + " " + s.name);
  }
}

TEST(CommSharedRelationsTest, SharedRelationsGiveTheFreshResultOnSeededFuzz) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    bool nonInjective = false;
    const scop::Scop scop = testing::randomIntervalScop(seed, &nonInjective);
    for (testing::CorpusSetting s : testing::intervalSettings(true)) {
      s.options.allowNonInjectiveWrites = nonInjective;
      expectSharedEqualsFresh(scop, s.options,
                              "seed " + std::to_string(seed) + " " + s.name);
    }
  }
}

TEST(CommSharedRelationsTest, RelationsMustComeFromTheSameScop) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P1"), 8);
  PipelineInfo mixed = detectPipeline(scop);
  ASSERT_FALSE(mixed.maps.empty());
  mixed.relations =
      detectPipeline(kernels::matmulChain(kernels::MatmulVariant::NMM, 3, 4))
          .relations;
  ASSERT_NE(mixed.relations->writes.size(),
            scop.numStatements() * scop.arrays().size());
  EXPECT_THROW((void)analyzeCommunication(scop, mixed), Error);
}

TEST(CommSharedRelationsTest, CopiesOfOneInfoAnalyzeConcurrently) {
  // Four threads run comm on their own copies of one info; the copies
  // share detection's relations, which every thread only reads.
  const scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::GNMM, 4, 8);
  const PipelineInfo info = detectPipeline(scop);
  const CommInfo want = analyzeCommunication(scop, info);
  constexpr std::size_t kThreads = 4;
  std::vector<CommInfo> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i, copy = info] {
      for (int rep = 0; rep < 3; ++rep)
        got[i] = analyzeCommunication(scop, copy);
    });
  for (std::thread& t : threads)
    t.join();
  for (std::size_t i = 0; i < kThreads; ++i)
    expectSameEdges(got[i], want, "thread " + std::to_string(i));
}

} // namespace
} // namespace pipoly::pipeline
