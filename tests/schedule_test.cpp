#include "schedule/build.hpp"

#include "pipeline/detect.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::sched {
namespace {

TEST(ScheduleTreeTest, NodeConstructionAndAccessors) {
  pb::IntTupleSet set(pb::Space("S", 1), {pb::Tuple{0}, pb::Tuple{1}});
  auto d = ScheduleNode::domain(set);
  EXPECT_EQ(d->kind(), NodeKind::Domain);
  EXPECT_EQ(d->domainSet(), set);

  auto b = ScheduleNode::band(pb::IntMap::identity(set));
  EXPECT_EQ(b->kind(), NodeKind::Band);
  EXPECT_EQ(b->partialSchedule().size(), 2u);

  auto m = ScheduleNode::mark("pipeline", PipelineMark{});
  EXPECT_EQ(m->markId(), "pipeline");

  auto e = ScheduleNode::expansion({0, 1, 2});
  EXPECT_EQ(e->blockStarts().size(), 3u);

  // Wrong-kind accessors throw.
  EXPECT_THROW((void)d->partialSchedule(), Error);
  EXPECT_THROW((void)b->domainSet(), Error);
  EXPECT_THROW((void)d->markId(), Error);
}

TEST(ScheduleTreeTest, OnlySequenceAllowsMultipleChildren) {
  pb::IntTupleSet set(pb::Space("S", 1), {pb::Tuple{0}});
  auto d = ScheduleNode::domain(set);
  d->addChild(ScheduleNode::leaf());
  EXPECT_THROW(d->addChild(ScheduleNode::leaf()), Error);

  auto seq = ScheduleNode::sequence();
  seq->addChild(ScheduleNode::leaf());
  seq->addChild(ScheduleNode::leaf());
  EXPECT_EQ(seq->numChildren(), 2u);

  auto leaf = ScheduleNode::leaf();
  EXPECT_THROW(leaf->addChild(ScheduleNode::leaf()), Error);
}

TEST(ScheduleTreeTest, FindMark) {
  pb::IntTupleSet set(pb::Space("S", 1), {pb::Tuple{0}});
  auto root = ScheduleNode::sequence();
  auto& d = root->addChild(ScheduleNode::domain(set));
  PipelineMark info;
  info.stmtIdx = 3;
  d.addChild(ScheduleNode::mark("pipeline", std::move(info)));
  const ScheduleNode* found = root->findMark("pipeline");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->markInfo().stmtIdx, 3u);
  EXPECT_EQ(root->findMark("missing"), nullptr);
}

TEST(Algorithm2Test, Listing1Structure) {
  scop::Scop scop = testing::listing1(12);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);

  ASSERT_EQ(tree->kind(), NodeKind::Sequence);
  ASSERT_EQ(tree->numChildren(), 2u);
  // Each statement subtree: domain -> band -> expansion -> mark -> band ->
  // leaf, as required by Algorithm 2.
  for (std::size_t s = 0; s < 2; ++s) {
    const ScheduleNode& d = tree->child(s);
    EXPECT_EQ(d.kind(), NodeKind::Domain);
    const ScheduleNode& b1 = d.child(0);
    EXPECT_EQ(b1.kind(), NodeKind::Band);
    const ScheduleNode& e = b1.child(0);
    EXPECT_EQ(e.kind(), NodeKind::Expansion);
    const ScheduleNode& m = e.child(0);
    EXPECT_EQ(m.kind(), NodeKind::Mark);
    EXPECT_EQ(m.markId(), kPipelineMarkId);
    const ScheduleNode& b2 = m.child(0);
    EXPECT_EQ(b2.kind(), NodeKind::Band);
    EXPECT_EQ(b2.child(0).kind(), NodeKind::Leaf);
  }
  // And the validator agrees.
  EXPECT_NO_THROW(validatePipelineSchedule(*tree, scop));
}

TEST(Algorithm2Test, DomainNodesCarryBlockReps) {
  scop::Scop scop = testing::listing1(20);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_EQ(tree->child(s).domainSet(), info.statements[s].blockReps);
}

TEST(Algorithm2Test, ContractionIsSigma) {
  scop::Scop scop = testing::listing3(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);
  for (std::size_t s = 0; s < 3; ++s) {
    const ScheduleNode& expansion = tree->child(s).child(0).child(0);
    EXPECT_EQ(expansion.blockStarts(), info.statements[s].blockStarts);
  }
}

TEST(Algorithm2Test, MarkCarriesDependencyInfo) {
  scop::Scop scop = testing::listing3(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);
  // Statement U (idx 2) is the target of two pipeline maps (S->U, R->U).
  const ScheduleNode* mark = tree->child(2).findMark(kPipelineMarkId);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->markInfo().stmtIdx, 2u);
  EXPECT_EQ(mark->markInfo().inRequirements.size(), 2u);
  EXPECT_EQ(mark->markInfo().chainOrdering, info.statements[2].chainOrdering);
}

TEST(Algorithm2Test, ValidatorRejectsForeignScop) {
  scop::Scop scop = testing::listing1(12);
  scop::Scop other = testing::listing1(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);
  EXPECT_THROW(validatePipelineSchedule(*tree, other), Error);
}

TEST(Algorithm2Test, TreePrinterMentionsAllNodeKinds) {
  scop::Scop scop = testing::listing1(12);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = buildPipelineSchedule(scop, info);
  std::string text = tree->toString();
  for (const char* kind :
       {"sequence", "domain", "band", "expansion", "mark", "leaf"})
    EXPECT_NE(text.find(kind), std::string::npos) << kind;
}

} // namespace
} // namespace pipoly::sched
