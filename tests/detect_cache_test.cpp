// DetectCache semantics: hit/miss accounting, bit-identical hits, LRU
// eviction, key separation across detection options (but NOT across
// numThreads, which is deliberately excluded from the fingerprint), and
// thread-safety of getOrCompute (exercised under TSAN in CI).

#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/detect_cache.hpp"
#include "scop/builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace pipoly {
namespace {

/// Field-by-field PipelineInfo equality (PipelineInfo has no operator==;
/// same comparator trace_invariance_test and bench_detect use).
bool infoEquals(const pipeline::PipelineInfo& a,
                const pipeline::PipelineInfo& b) {
  if (a.maps.size() != b.maps.size() ||
      a.statements.size() != b.statements.size())
    return false;
  for (std::size_t i = 0; i < a.maps.size(); ++i)
    if (a.maps[i].srcIdx != b.maps[i].srcIdx ||
        a.maps[i].tgtIdx != b.maps[i].tgtIdx ||
        !(a.maps[i].map == b.maps[i].map))
      return false;
  for (std::size_t s = 0; s < a.statements.size(); ++s) {
    const pipeline::StatementPipelineInfo& x = a.statements[s];
    const pipeline::StatementPipelineInfo& y = b.statements[s];
    if (!(x.blocking == y.blocking) || !(x.expansion == y.expansion) ||
        !(x.blockReps == y.blockReps) ||
        !(x.outDependency == y.outDependency) ||
        x.chainOrdering != y.chainOrdering || !(x.selfEdges == y.selfEdges) ||
        x.inRequirements.size() != y.inRequirements.size())
      return false;
    for (std::size_t r = 0; r < x.inRequirements.size(); ++r)
      if (x.inRequirements[r].srcStmtIdx != y.inRequirements[r].srcStmtIdx ||
          !(x.inRequirements[r].map == y.inRequirements[r].map))
        return false;
  }
  return true;
}

constexpr pb::Value kN = 6;

scop::Scop program(const char* name) {
  return kernels::buildProgram(kernels::programByName(name), kN);
}

TEST(DetectCacheTest, HitReturnsBitIdenticalResult) {
  pipeline::DetectCache cache;
  const scop::Scop scop = program("P3");
  const pipeline::PipelineInfo direct = pipeline::detectPipeline(scop);

  const pipeline::PipelineInfo cold = cache.getOrCompute(scop);
  const pipeline::PipelineInfo warm = cache.getOrCompute(scop);
  EXPECT_TRUE(infoEquals(direct, cold));
  EXPECT_TRUE(infoEquals(direct, warm));
  EXPECT_EQ(cold.hasPipeline(), direct.hasPipeline());
  EXPECT_EQ(warm.totalBlocks(), direct.totalBlocks());

  // Warm hits replay the DetectStats of the run that computed the entry.
  EXPECT_GT(direct.stats.parametricPairs, 0u);
  for (const pipeline::PipelineInfo* info : {&cold, &warm}) {
    EXPECT_EQ(info->stats.candidatePairs, direct.stats.candidatePairs);
    EXPECT_EQ(info->stats.parametricPairs, direct.stats.parametricPairs);
    EXPECT_EQ(info->stats.symbolicPairs, direct.stats.symbolicPairs);
    EXPECT_EQ(info->stats.explicitPairs, direct.stats.explicitPairs);
    EXPECT_EQ(info->stats.independentPairs, direct.stats.independentPairs);
    EXPECT_EQ(info->stats.fallbackByReason, direct.stats.fallbackByReason);
  }

  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(DetectCacheTest, DistinctProgramsGetDistinctEntries) {
  pipeline::DetectCache cache;
  cache.getOrCompute(program("P1"));
  cache.getOrCompute(program("P2"));
  cache.getOrCompute(program("P1"));
  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(DetectCacheTest, ProblemSizeIsPartOfTheKey) {
  pipeline::DetectCache cache;
  const kernels::ProgramSpec& spec = kernels::programByName("P1");
  cache.getOrCompute(kernels::buildProgram(spec, 4));
  cache.getOrCompute(kernels::buildProgram(spec, 5));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DetectCacheTest, OptionsSeparateKeysExceptNumThreads) {
  pipeline::DetectCache cache;
  const scop::Scop scop = program("P4");

  pipeline::DetectOptions base;
  cache.getOrCompute(scop, base); // miss 1

  pipeline::DetectOptions coarse = base;
  coarse.coarsening = 2;
  cache.getOrCompute(scop, coarse); // miss 2

  pipeline::DetectOptions firstMap = base;
  firstMap.integration = pipeline::DetectOptions::Integration::FirstMapOnly;
  cache.getOrCompute(scop, firstMap); // miss 3

  pipeline::DetectOptions relaxed = base;
  relaxed.relaxSameNestOrdering = !base.relaxSameNestOrdering;
  cache.getOrCompute(scop, relaxed); // miss 4

  // numThreads is excluded from the fingerprint: a parallel request must
  // hit the entry the serial request populated.
  pipeline::DetectOptions parallel = base;
  parallel.numThreads = 4;
  EXPECT_EQ(pipeline::detectFingerprint(scop, base),
            pipeline::detectFingerprint(scop, parallel));
  cache.getOrCompute(scop, parallel); // hit

  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 4u);
}

TEST(DetectCacheTest, FingerprintKeyAuditCoversEveryResultAffectingOption) {
  // The audit contract of the fingerprint: every option that can change
  // the computed PipelineInfo forks the key; the only result-invariant
  // option (numThreads — bit-identical by the detect_parallel contract)
  // shares it. A new DetectOptions field must be added to the fingerprint
  // (detect_cache.cpp), to this list, and to the size guard below.
  const scop::Scop scop = program("P3");
  const pipeline::DetectOptions base;
  const std::string ref = pipeline::detectFingerprint(scop, base);

  const auto differs = [&](auto mutate, const char* what) {
    pipeline::DetectOptions opt = base;
    mutate(opt);
    EXPECT_NE(ref, pipeline::detectFingerprint(scop, opt)) << what;
  };
  differs([](pipeline::DetectOptions& o) {
    o.integration = pipeline::DetectOptions::Integration::FirstMapOnly;
  }, "integration");
  differs([](pipeline::DetectOptions& o) { o.coarsening = 2; }, "coarsening");
  differs([](pipeline::DetectOptions& o) { o.allowNonInjectiveWrites = true; },
          "allowNonInjectiveWrites");
  differs([](pipeline::DetectOptions& o) { o.relaxSameNestOrdering = true; },
          "relaxSameNestOrdering");
  differs([](pipeline::DetectOptions& o) {
    o.reductionMode = pipeline::DetectOptions::ReductionMode::Off;
  }, "reductionMode");
  differs([](pipeline::DetectOptions& o) { o.reductionBlocks = 4; },
          "reductionBlocks");

  pipeline::DetectOptions threads = base;
  threads.numThreads = 8;
  EXPECT_EQ(ref, pipeline::detectFingerprint(scop, threads));

  // Size guard: growing DetectOptions without updating the fingerprint
  // (and the audit above) must not pass silently.
  struct Mirror {
    pipeline::DetectOptions::Integration integration;
    std::size_t coarsening;
    bool allowNonInjectiveWrites;
    bool relaxSameNestOrdering;
    pipeline::DetectOptions::ReductionMode reductionMode;
    std::size_t reductionBlocks;
    unsigned numThreads;
  };
  static_assert(sizeof(pipeline::DetectOptions) == sizeof(Mirror),
                "DetectOptions grew: extend detectFingerprint and this audit");
}

TEST(DetectCacheTest, DeclaredReductionOperatorIsPartOfTheKey) {
  // Two scops with bit-identical accesses but different declared
  // operators produce different detection results under reductionMode =
  // Auto, so the per-statement operator must fork the key.
  const auto build = [](scop::ReductionOp op) {
    scop::ScopBuilder b("opkey");
    const std::size_t acc = b.array("acc", {1});
    auto S = b.statement("S", 1);
    S.bound(0, 0, 8);
    S.write(acc, {S.constant(0)});
    S.read(acc, {S.constant(0)});
    if (op != scop::ReductionOp::None)
      S.reductionOp(op);
    return b.build();
  };
  const pipeline::DetectOptions base;
  const std::string none = pipeline::detectFingerprint(build(scop::ReductionOp::None), base);
  const std::string add = pipeline::detectFingerprint(build(scop::ReductionOp::Add), base);
  const std::string xr = pipeline::detectFingerprint(build(scop::ReductionOp::Xor), base);
  EXPECT_NE(none, add);
  EXPECT_NE(none, xr);
  EXPECT_NE(add, xr);
}

TEST(DetectCacheTest, LruEvictsTheLeastRecentlyUsedEntry) {
  pipeline::DetectCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const scop::Scop p1 = program("P1");
  const scop::Scop p2 = program("P2");
  const scop::Scop p3 = program("P3");

  cache.getOrCompute(p1); // {P1}
  cache.getOrCompute(p2); // {P2, P1}
  cache.getOrCompute(p1); // hit; {P1, P2}
  cache.getOrCompute(p3); // evicts P2; {P3, P1}
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.getOrCompute(p1); // still resident: hit
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.getOrCompute(p2); // evicted earlier: miss again, evicts P3
  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(DetectCacheTest, ClearResetsEntriesAndStats) {
  pipeline::DetectCache cache;
  cache.getOrCompute(program("P1"));
  cache.getOrCompute(program("P1"));
  cache.clear();
  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
  cache.getOrCompute(program("P1"));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DetectCacheTest, RejectsZeroCapacity) {
  EXPECT_THROW(pipeline::DetectCache(0), Error);
}

TEST(DetectCacheTest, ConcurrentGetOrComputeIsSafeAndConsistent) {
  pipeline::DetectCache cache(4);
  std::vector<scop::Scop> scops;
  std::vector<pipeline::PipelineInfo> expected;
  for (const char* name : {"P1", "P2", "P3", "P5"}) {
    scops.push_back(program(name));
    expected.push_back(pipeline::detectPipeline(scops.back()));
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kReps = 6;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < scops.size(); ++i) {
          // Stagger the access order per thread so misses and hits race.
          const std::size_t pick = (i + t) % scops.size();
          const pipeline::PipelineInfo got = cache.getOrCompute(scops[pick]);
          if (!infoEquals(got, expected[pick]))
            ++failures[t];
        }
    });
  }
  for (std::thread& w : workers)
    w.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t << " saw a divergent result";

  const pipeline::DetectCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * kReps * 4));
  EXPECT_GE(s.misses, 4u); // each key computed at least once
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 0u);
}

} // namespace
} // namespace pipoly
