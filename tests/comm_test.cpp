// Tests for pipeline::analyzeCommunication: per-edge volumes validated
// against the brute-force counting oracle on every Table-9 program (the
// parametric, separable closed-form, fast path included), capacity/peak
// invariants, and the CommInfo lookup API the channel backend builds its
// ring sizes from.

#include "pipeline/comm.hpp"

#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

namespace pipoly::pipeline {
namespace {

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

} // namespace
} // namespace pipoly::pipeline
