// Edge-case hardening across the stack: minimal domains, multi-write
// statements, single-iteration nests, degenerate coarsening, the
// original-schedule builder, and the calibration API.

#include "codegen/task_program.hpp"
#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "scop/builder.hpp"
#include "sim/calibrate.hpp"
#include "support/assert.hpp"
#include "tasking/tasking.hpp"
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace pipoly {
namespace {

TEST(EdgeCaseTest, MinimalTwoByTwoPipeline) {
  scop::ScopBuilder b("tiny");
  std::size_t A = b.array("A", {2, 2});
  std::size_t B = b.array("B", {2, 2});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 2).bound(1, 0, 2);
  S.write(A, {S.dim(0), S.dim(1)});
  auto T = b.statement("T", 2);
  T.bound(0, 0, 2).bound(1, 0, 2);
  T.write(B, {T.dim(0), T.dim(1)});
  T.read(A, {T.dim(0), T.dim(1)});
  scop::Scop scop = b.build();
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  EXPECT_NO_THROW(prog.validate(scop));
  auto layer = tasking::makeThreadPoolBackend(2);
  EXPECT_TRUE(verify::selfCheck(scop, prog, *layer).ok);
}

TEST(EdgeCaseTest, SingleIterationNests) {
  scop::ScopBuilder b("singleton");
  std::size_t A = b.array("A", {1});
  std::size_t B = b.array("B", {1});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 1).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 1).write(B, {T.dim(0)}).read(A, {T.dim(0)});
  scop::Scop scop = b.build();
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  EXPECT_EQ(prog.tasks.size(), 2u);
  auto layer = tasking::makeSerialBackend();
  EXPECT_TRUE(verify::selfCheck(scop, prog, *layer).ok);
}

TEST(EdgeCaseTest, MultiWriteStatement) {
  // S writes two arrays; T reads both: P is the union over both arrays.
  scop::ScopBuilder b("multiwrite");
  std::size_t A = b.array("A", {6});
  std::size_t B = b.array("B", {6});
  std::size_t C = b.array("C", {6});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 6);
  S.write(A, {S.dim(0)});
  S.write(B, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 3);
  T.write(C, {T.dim(0)});
  T.read(A, {2 * T.dim(0)});
  T.read(B, {T.dim(0) + 1});
  scop::Scop scop = b.build();
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  ASSERT_EQ(info.maps.size(), 1u);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  auto layer = tasking::makeThreadPoolBackend(2);
  EXPECT_TRUE(verify::selfCheck(scop, prog, *layer).ok);
}

TEST(EdgeCaseTest, CoarseningLargerThanBlockCount) {
  scop::Scop scop = [&] {
    scop::ScopBuilder b("small");
    std::size_t A = b.array("A", {4});
    std::size_t B = b.array("B", {4});
    auto S = b.statement("S", 1);
    S.bound(0, 0, 4).write(A, {S.dim(0)});
    auto T = b.statement("T", 1);
    T.bound(0, 0, 4).write(B, {T.dim(0)}).read(A, {T.dim(0)});
    return b.build();
  }();
  pipeline::DetectOptions opt;
  opt.coarsening = 1000;
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
  for (const auto& st : info.statements)
    EXPECT_EQ(st.blockReps.size(), 1u);
}

TEST(EdgeCaseTest, OriginalScheduleFlattensToProgramOrder) {
  scop::Scop scop = [&] {
    scop::ScopBuilder b("orig");
    std::size_t A = b.array("A", {3, 3});
    std::size_t B = b.array("B", {3, 3});
    auto S = b.statement("S", 2);
    S.bound(0, 0, 3).bound(1, 0, 3).write(A, {S.dim(0), S.dim(1)});
    auto T = b.statement("T", 2);
    T.bound(0, 0, 3).bound(1, 0, 3);
    T.write(B, {T.dim(0), T.dim(1)});
    T.read(A, {T.dim(0), T.dim(1)});
    return b.build();
  }();
  auto tree = sched::buildOriginalSchedule(scop);
  ASSERT_EQ(tree->kind(), sched::NodeKind::Sequence);
  ASSERT_EQ(tree->numChildren(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const sched::ScheduleNode& d = tree->child(s);
    EXPECT_EQ(d.kind(), sched::NodeKind::Domain);
    EXPECT_EQ(d.domainSet(), scop.statement(s).domain());
    EXPECT_EQ(d.child(0).kind(), sched::NodeKind::Band);
    EXPECT_EQ(d.child(0).child(0).kind(), sched::NodeKind::Leaf);
  }
}

TEST(EdgeCaseTest, CalibrationProducesPlausibleCosts) {
  scop::Scop scop = [&] {
    scop::ScopBuilder b("calib");
    std::size_t A = b.array("A", {8, 8});
    std::size_t B = b.array("B", {8, 8});
    auto S = b.statement("S", 2);
    S.bound(0, 0, 8).bound(1, 0, 8).write(A, {S.dim(0), S.dim(1)});
    auto T = b.statement("T", 2);
    T.bound(0, 0, 8).bound(1, 0, 8);
    T.write(B, {T.dim(0), T.dim(1)});
    T.read(A, {T.dim(0), T.dim(1)});
    return b.build();
  }();
  // Statement 1 spins ~10x longer than statement 0.
  auto spin = [](int iters) {
    volatile int sink = 0;
    for (int k = 0; k < iters; ++k)
      sink = sink + k;
  };
  sim::CostModel model =
      sim::calibrate(scop, [&](std::size_t stmt, const pb::Tuple&) {
        spin(stmt == 0 ? 200 : 2000);
      });
  ASSERT_EQ(model.iterationCost.size(), 2u);
  EXPECT_GT(model.iterationCost[0], 0.0);
  EXPECT_GT(model.iterationCost[1], 2.0 * model.iterationCost[0]);
}

TEST(EdgeCaseTest, SlabWriteThroughOracleAndPipeline) {
  // A statement that writes a whole row per iteration (aux-dim write).
  // Writes are non-injective across iterations? No: each iteration owns
  // one row, so the union write relation stays injective, and the target
  // reads single elements from those rows.
  scop::ScopBuilder b("slab");
  std::size_t A = b.array("A", {6, 4});
  std::size_t B = b.array("B", {6});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 6);
  S.writeRange(A, {S.rangeDim(0, 1), S.rangeAux(0, 1)}, {4});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 6);
  T.write(B, {T.dim(0)});
  T.read(A, {T.dim(0), T.constant(2)});
  T.read(B, {T.dim(0)});
  scop::Scop scop = b.build();
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  EXPECT_NO_THROW(prog.validate(scop));
  auto layer = tasking::makeThreadPoolBackend(2);
  EXPECT_TRUE(verify::selfCheck(scop, prog, *layer).ok);
}

TEST(EdgeCaseTest, EmptyDomainStatementGetsZeroBlocks) {
  // A zero-extent nest has no iterations: detection must give it zero
  // blocks and no dependencies instead of tripping the "blocking an
  // empty domain" check.
  scop::ScopBuilder b("hole");
  std::size_t A = b.array("A", {8});
  std::size_t E = b.array("E", {8});
  std::size_t C = b.array("C", {8});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 8).write(A, {S.dim(0)});
  auto M = b.statement("M", 1);
  M.bound(0, 0, 0).write(E, {M.dim(0)}).read(A, {M.dim(0)});
  auto U = b.statement("U", 1);
  U.bound(0, 0, 8).write(C, {U.dim(0)}).read(A, {U.dim(0)});
  scop::Scop scop = b.build();

  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  EXPECT_TRUE(info.hasPipeline()); // S -> U still pipelines
  EXPECT_EQ(info.statements[1].blockReps.size(), 0u);
  EXPECT_EQ(info.statements[1].blockStarts, std::vector<std::uint32_t>{0});
  EXPECT_TRUE(info.statements[1].inRequirements.empty());
  for (const pipeline::PipelineMapEntry& entry : info.maps) {
    EXPECT_NE(entry.srcIdx, 1u);
    EXPECT_NE(entry.tgtIdx, 1u);
  }

  // The relaxed-ordering variant must survive empty domains too.
  pipeline::DetectOptions relaxed;
  relaxed.relaxSameNestOrdering = true;
  pipeline::PipelineInfo relaxedInfo = pipeline::detectPipeline(scop, relaxed);
  EXPECT_TRUE(relaxedInfo.statements[1].selfEdges.empty());
}

TEST(EdgeCaseTest, AllEmptyDomainsYieldNoPipeline) {
  scop::ScopBuilder b("void");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 0).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 0).write(B, {T.dim(0)}).read(A, {T.dim(0)});
  scop::Scop scop = b.build();
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  EXPECT_FALSE(info.hasPipeline());
  EXPECT_EQ(info.totalBlocks(), 0u);
}

TEST(EdgeCaseTest, ZeroReadProducerChain) {
  // The first nest reads nothing at all; still pipelines into the second.
  scop::ScopBuilder b("noreads");
  std::size_t A = b.array("A", {6});
  std::size_t B = b.array("B", {6});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 6).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 6).write(B, {T.dim(0)}).read(A, {T.dim(0)});
  scop::Scop scop = b.build();
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  EXPECT_TRUE(info.hasPipeline());
  // S is fully parallel; with relaxed ordering its blocks are unchained.
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  pipeline::PipelineInfo relaxed = pipeline::detectPipeline(scop, opt);
  EXPECT_TRUE(relaxed.statements[0].selfEdges.empty());
}

} // namespace
} // namespace pipoly
