// The differential harness for the parametric-first detection route:
// proves that detectPipeline's route ladder (the closed form with
// per-pair fallback) produces the pipeline maps and Σ_S of the explicit
// reference in testing/legacy_detect.hpp — over all of Table 9 and
// hundreds of randomized rectangular/affine-offset SCoPs — and that the
// route counters and trace instants faithfully record which route fired.

#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "testing/fixtures.hpp"
#include "testing/legacy_detect.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pipoly;
using pipeline::DetectOptions;
using pipeline::ParametricFallback;
using pipoly::testing::legacyDetect;
using pipoly::testing::legacyInRequirement;
using pipoly::testing::LegacyDetection;

/// Every map-based in-requirement against the eq.-4 reference. They are
/// appended to their targets in map order, ahead of any combine edge.
void expectInRequirementsMatchLegacy(const scop::Scop& scop,
                                     const pipeline::PipelineInfo& info,
                                     const std::string& what) {
  std::vector<std::size_t> seen(info.statements.size(), 0);
  for (std::size_t i = 0; i < info.maps.size(); ++i) {
    const pipeline::PipelineMapEntry& entry = info.maps[i];
    const std::vector<pipeline::InRequirement>& reqs =
        info.statements[entry.tgtIdx].inRequirements;
    const std::size_t r = seen[entry.tgtIdx]++;
    ASSERT_LT(r, reqs.size()) << what << " map " << i;
    EXPECT_EQ(reqs[r].srcStmtIdx, entry.srcIdx) << what << " map " << i;
    EXPECT_TRUE(reqs[r].map == legacyInRequirement(scop, entry, info))
        << what << " map " << i;
  }
}

/// The route ladder against the explicit reference: the same pipeline
/// maps in the same order, the same Σ_S for every statement, and the same
/// eq.-4 in-requirements.
void expectMatchesLegacy(const scop::Scop& scop, const LegacyDetection& ref,
                         const pipeline::PipelineInfo& info,
                         const std::string& what) {
  expectInRequirementsMatchLegacy(scop, info, what);
  ASSERT_EQ(ref.maps.size(), info.maps.size()) << what;
  for (std::size_t i = 0; i < ref.maps.size(); ++i) {
    EXPECT_EQ(ref.maps[i].srcIdx, info.maps[i].srcIdx) << what << " map " << i;
    EXPECT_EQ(ref.maps[i].tgtIdx, info.maps[i].tgtIdx) << what << " map " << i;
    EXPECT_TRUE(ref.maps[i].map == info.maps[i].map) << what << " map " << i;
  }
  ASSERT_EQ(ref.blocking.size(), info.statements.size()) << what;
  for (std::size_t s = 0; s < ref.blocking.size(); ++s)
    EXPECT_TRUE(ref.blocking[s] == pipoly::testing::sigmaMap(scop, info, s))
        << what << " S" << s;
}

/// The routes must partition the candidates.
void expectStatsConsistent(const pipeline::DetectStats& st,
                           const std::string& what) {
  EXPECT_EQ(st.parametricPairs + st.symbolicPairs + st.explicitPairs +
                st.independentPairs,
            st.candidatePairs)
      << what;
}

const std::vector<std::string>& regularPrograms() {
  // The Table-9 programs whose cross reads are all separable; P4, P6 and
  // P10 carry coupled A[i+j][j]-style reads.
  static const std::vector<std::string> names = {"P1", "P2", "P3", "P5",
                                                 "P7", "P8", "P9"};
  return names;
}

// --- Table 9 ---------------------------------------------------------

TEST(ParametricDetect, Table9BitIdenticalAcrossModesThreadsAndN) {
  std::size_t built = 0;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    for (pb::Value n : {2, 3, 4, 5, 8, 13, 16, 21, 27, 32}) {
      // Programs with strided reads reject N below their patterns (the
      // clipped nest bound drops under 2); when they build, detection
      // must match the reference.
      std::optional<scop::Scop> scop;
      try {
        scop.emplace(kernels::buildProgram(spec, n));
      } catch (const pipoly::Error&) {
        continue; // N too small for this program's patterns
      }
      ++built;
      const std::string what = spec.name + " N=" + std::to_string(n);
      const pipeline::PipelineInfo serial = pipeline::detectPipeline(*scop);
      expectMatchesLegacy(*scop, legacyDetect(*scop), serial,
                          what + " serial");
    }
  }
  EXPECT_GE(built, 70u); // the skip path must stay the exception
}

TEST(ParametricDetect, Table9RouteCensus) {
  // The suite-wide route split is part of the contract: a regression that
  // silently sends parametric pairs down the legacy routes must fail here.
  pipeline::DetectStats total;
  std::size_t nonSeparable = 0, noShared = 0;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 16);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    expectStatsConsistent(info.stats, spec.name);
    total.candidatePairs += info.stats.candidatePairs;
    total.parametricPairs += info.stats.parametricPairs;
    total.symbolicPairs += info.stats.symbolicPairs;
    total.explicitPairs += info.stats.explicitPairs;
    total.independentPairs += info.stats.independentPairs;
    nonSeparable += info.stats.fallbacks(ParametricFallback::NonSeparableRead);
    noShared += info.stats.fallbacks(ParametricFallback::NoSharedArray);

    // The coupled-read programs are the only ones that fall back.
    const std::size_t expectedFallbacks =
        spec.name == "P4" ? 2 : spec.name == "P6" ? 3
                            : spec.name == "P10" ? 1 : 0;
    EXPECT_EQ(info.stats.fallbackPairs(), expectedFallbacks) << spec.name;
  }
  EXPECT_EQ(total.candidatePairs, 44u);  // sum of C(nests, 2) over P1-P10
  EXPECT_EQ(total.parametricPairs, 31u); // every separable dependent pair
  EXPECT_EQ(total.symbolicPairs, 6u);    // the coupled reads of P4/P6/P10
  EXPECT_EQ(total.explicitPairs, 0u);
  EXPECT_EQ(total.independentPairs, 7u); // array-disjoint pairs
  EXPECT_EQ(nonSeparable, 6u);
  EXPECT_EQ(noShared, 7u);
}

TEST(ParametricDetect, ForceAcceptsRegularProgramsAndRejectsCoupledReads) {
  // The regular programs take the closed form for every pair; the
  // coupled-read programs hand exactly their A[i+j][j] pairs down the
  // ladder.
  for (const std::string& name : regularPrograms()) {
    const pipeline::PipelineInfo info = pipeline::detectPipeline(
        kernels::buildProgram(kernels::programByName(name), 16));
    EXPECT_EQ(info.stats.fallbackPairs(), 0u) << name;
    EXPECT_EQ(info.stats.symbolicPairs, 0u) << name;
    EXPECT_EQ(info.stats.explicitPairs, 0u) << name;
  }
  for (const char* name : {"P4", "P6", "P10"}) {
    const pipeline::PipelineInfo info = pipeline::detectPipeline(
        kernels::buildProgram(kernels::programByName(name), 16));
    EXPECT_GT(info.stats.fallbacks(ParametricFallback::NonSeparableRead), 0u)
        << name;
    EXPECT_EQ(info.stats.fallbacks(ParametricFallback::NonSeparableRead),
              info.stats.fallbackPairs())
        << name;
  }
}

// --- Randomized differential harness ---------------------------------

/// A random program of 2-4 single-writer nests with rectangular domains:
/// identity writes, and cross reads that are mostly separable monotone
/// (coefficients 1-3, offsets that may be negative where the domain's
/// lower bound keeps subscripts legal) with occasional irregular shapes
/// (coupled subscripts, duplicate reads, constant subscripts) thrown in
/// to exercise the per-pair fallback.
scop::Scop randomScop(SplitMix64& rng, std::uint64_t tag) {
  const std::size_t nests = 2 + rng.nextBelow(3);
  const std::size_t depth = 1 + rng.nextBelow(2);

  struct ReadSpec {
    std::size_t src;
    enum Kind { Separable, Coupled, Duplicate, ConstantDim } kind;
    std::vector<pb::Value> c, o;
  };
  struct StmtSpec {
    std::vector<pb::Value> lo, hi; // lo <= x < hi
    std::vector<ReadSpec> reads;
  };

  std::vector<StmtSpec> stmts(nests);
  for (std::size_t k = 0; k < nests; ++k) {
    for (std::size_t d = 0; d < depth; ++d) {
      const pb::Value lo = static_cast<pb::Value>(rng.nextBelow(3));
      stmts[k].lo.push_back(lo);
      stmts[k].hi.push_back(lo + 2 + static_cast<pb::Value>(rng.nextBelow(31)));
    }
    for (std::size_t s = 0; s < k; ++s) {
      if (rng.nextBelow(10) >= 7)
        continue;
      ReadSpec r;
      r.src = s;
      const std::uint64_t kind = rng.nextBelow(8);
      if (kind == 0 && depth == 2) {
        r.kind = ReadSpec::Coupled; // A_s[i+j][j]
      } else if (kind == 1) {
        r.kind = ReadSpec::Duplicate;
      } else if (kind == 2) {
        r.kind = ReadSpec::ConstantDim;
      } else {
        r.kind = ReadSpec::Separable;
      }
      for (std::size_t d = 0; d < depth; ++d) {
        pb::Value c = 1 + static_cast<pb::Value>(rng.nextBelow(3));
        if (r.kind == ReadSpec::ConstantDim && d == 0)
          c = 0; // subscript_0 is a constant: non-monotone
        // Keep c*x + o >= 0 over x >= lo so the access stays in bounds.
        const pb::Value minOffset = -c * stmts[k].lo[d];
        const pb::Value o =
            minOffset + static_cast<pb::Value>(rng.nextBelow(
                            static_cast<std::uint64_t>(4 - minOffset + 1)));
        r.c.push_back(c);
        r.o.push_back(o);
      }
      stmts[k].reads.push_back(std::move(r));
    }
  }

  // Array shapes: large enough for the writer and every reader.
  std::vector<std::vector<pb::Value>> shapes(nests);
  for (std::size_t k = 0; k < nests; ++k)
    shapes[k] = stmts[k].hi;
  for (std::size_t k = 0; k < nests; ++k)
    for (const ReadSpec& r : stmts[k].reads)
      for (std::size_t d = 0; d < depth; ++d) {
        pb::Value maxSub;
        if (r.kind == ReadSpec::Coupled)
          maxSub = d == 0 ? (stmts[k].hi[0] - 1) + (stmts[k].hi[1] - 1)
                          : stmts[k].hi[1] - 1;
        else
          maxSub = r.c[d] * (stmts[k].hi[d] - 1) + r.o[d];
        shapes[r.src][d] = std::max(shapes[r.src][d], maxSub + 1);
      }

  scop::ScopBuilder b("rand" + std::to_string(tag));
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k), shapes[k]));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement(indexedName("S", k), depth);
    std::vector<pb::AffineExpr> identity;
    for (std::size_t d = 0; d < depth; ++d) {
      S.bound(d, stmts[k].lo[d], stmts[k].hi[d]);
      identity.push_back(S.dim(d));
    }
    S.write(arrays[k], identity);
    for (const ReadSpec& r : stmts[k].reads) {
      std::vector<pb::AffineExpr> subs;
      if (r.kind == ReadSpec::Coupled) {
        subs = {S.dim(0) + S.dim(1), S.dim(1)};
      } else {
        for (std::size_t d = 0; d < depth; ++d)
          subs.push_back(r.c[d] * S.dim(d) + r.o[d]);
      }
      S.read(arrays[r.src], subs);
      if (r.kind == ReadSpec::Duplicate)
        S.read(arrays[r.src], subs);
    }
  }
  return b.build();
}

TEST(ParametricDetect, RandomizedDifferentialHarness) {
  SplitMix64 rng(0x9d1f2c3b5a7e4680ULL);
  std::size_t totalParametric = 0, totalFallbacks = 0;
  for (std::uint64_t iter = 0; iter < 220; ++iter) {
    const scop::Scop scop = randomScop(rng, iter);
    const std::string what = "iter " + std::to_string(iter);

    const pipeline::PipelineInfo autoSerial = pipeline::detectPipeline(scop);
    expectMatchesLegacy(scop, legacyDetect(scop), autoSerial,
                        what + " serial");

    expectStatsConsistent(autoSerial.stats, what);
    const std::size_t n = scop.numStatements();
    EXPECT_EQ(autoSerial.stats.candidatePairs, n * (n - 1) / 2) << what;
    totalParametric += autoSerial.stats.parametricPairs;
    totalFallbacks += autoSerial.stats.fallbackPairs();
  }
  // The harness must actually exercise both the closed form and the
  // fallback ladder; a generator regression that stops producing either
  // would hollow the suite out silently.
  EXPECT_GT(totalParametric, 100u);
  EXPECT_GT(totalFallbacks, 20u);
}

TEST(ParametricDetect, InRequirementsMatchLegacyUnderEveryBlockingOption) {
  // Coarsening and FirstMapOnly change the blocks eq. 4 looks up; the
  // random programs reach its whole-prefix branch (blocks past the last
  // pipeline boundary); the reduction grid puts combine edges after the
  // map-based requirements; the scalar pair has zero-width rows.
  std::vector<std::pair<std::string, scop::Scop>> programs;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    programs.emplace_back(spec.name, kernels::buildProgram(spec, 16));
  for (const kernels::ReductionKernelSpec& k : kernels::reductionKernels())
    programs.emplace_back(k.name, k.build(16));
  programs.emplace_back("scalar_pair", pipoly::testing::scalarPair());
  SplitMix64 rng(0x6a09e667f3bcc908ULL);
  for (std::uint64_t iter = 0; iter < 60; ++iter)
    programs.emplace_back("random " + std::to_string(iter),
                          randomScop(rng, iter));
  DetectOptions coarse, firstMap;
  coarse.coarsening = 3;
  firstMap.integration = DetectOptions::Integration::FirstMapOnly;
  for (const auto& [name, scop] : programs)
    for (const auto& [config, options] :
         {std::pair<const char*, DetectOptions>{"default", {}},
          {"coarsening=3", coarse},
          {"FirstMapOnly", firstMap}})
      expectInRequirementsMatchLegacy(
          scop, pipeline::detectPipeline(scop, options),
          name + " " + config);
}

// --- Fallback coverage (pairs that *almost* match) --------------------

struct FallbackCase {
  const char* name;
  ParametricFallback reason;
  const char* traceName;
  scop::Scop scop;
};

std::vector<FallbackCase> fallbackCases() {
  std::vector<FallbackCase> cases;
  // Non-monotone stride: the first subscript is the constant 3.
  {
    scop::ScopBuilder b("nonmonotone");
    const std::size_t a1 = b.array("A1", {12, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {pb::AffineExpr(2, 3), s2.dim(1)});
    cases.push_back({"nonmonotone", ParametricFallback::NonMonotoneRead,
                     "detect.fallback.non_monotone_read", b.build()});
  }
  // Coupled subscripts: A1[i+j][j].
  {
    scop::ScopBuilder b("coupled");
    const std::size_t a1 = b.array("A1", {24, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 24).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0) + s2.dim(1), s2.dim(1)});
    cases.push_back({"coupled", ParametricFallback::NonSeparableRead,
                     "detect.fallback.non_separable_read", b.build()});
  }
  // Non-rectangular (triangular) domains: j <= i.
  {
    scop::ScopBuilder b("triangular");
    const std::size_t a1 = b.array("A1", {12, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, s1.constant(0), s1.dim(0) + 1);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 12).bound(1, s2.constant(0), s2.dim(0) + 1);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1)});
    cases.push_back({"triangular", ParametricFallback::NonRectangularDomain,
                     "detect.fallback.non_rectangular_domain", b.build()});
  }
  // Two reads of the shared array.
  {
    scop::ScopBuilder b("tworeads");
    const std::size_t a1 = b.array("A1", {12, 13});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 13);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1) + 1});
    cases.push_back({"tworeads", ParametricFallback::MultipleReads,
                     "detect.fallback.multiple_reads", b.build()});
  }
  // Non-identity (strided) write.
  {
    scop::ScopBuilder b("stridedwrite");
    const std::size_t a1 = b.array("A1", {12, 24});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), 2 * s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), 2 * s2.dim(1)});
    cases.push_back({"stridedwrite", ParametricFallback::NonIdentityWrite,
                     "detect.fallback.non_identity_write", b.build()});
  }
  return cases;
}

TEST(ParametricDetect, FallbackPairsMatchLegacyAndRecordTheirReason) {
  for (const FallbackCase& c : fallbackCases()) {
    const LegacyDetection ref = legacyDetect(c.scop);
    ASSERT_FALSE(ref.maps.empty()) << c.name << ": case must be dependent";

    trace::Session session;
    session.start();
    const pipeline::PipelineInfo info = pipeline::detectPipeline(c.scop);
    session.stop();

    expectMatchesLegacy(c.scop, ref, info, c.name);
    EXPECT_EQ(info.stats.parametricPairs, 0u) << c.name;
    EXPECT_EQ(info.stats.fallbackPairs(), 1u) << c.name;
    EXPECT_EQ(info.stats.fallbacks(c.reason), 1u) << c.name;
    expectStatsConsistent(info.stats, c.name);

    // The trace names the fallback reason and the legacy route that
    // handled the pair.
    bool sawReason = false, sawLegacyRoute = false;
    for (const trace::TraceEvent& e : session.trace().events) {
      if (e.kind != trace::EventKind::Instant)
        continue;
      sawReason = sawReason || e.name == c.traceName;
      sawLegacyRoute = sawLegacyRoute || e.name == "detect.route.symbolic" ||
                       e.name == "detect.route.explicit";
    }
    EXPECT_TRUE(sawReason) << c.name << ": missing " << c.traceName;
    EXPECT_TRUE(sawLegacyRoute) << c.name;
  }
}

TEST(ParametricDetect, ParametricRouteTracesItsPairs) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P1"), 16);
  trace::Session session;
  session.start();
  (void)pipeline::detectPipeline(scop);
  session.stop();
  std::size_t parametricInstants = 0;
  for (const trace::TraceEvent& e : session.trace().events)
    if (e.kind == trace::EventKind::Instant &&
        e.name == std::string("detect.route.parametric"))
      ++parametricInstants;
  EXPECT_EQ(parametricInstants, 1u);
}

} // namespace
