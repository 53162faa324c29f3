#include "schedule/build.hpp"

#include "support/assert.hpp"

namespace pipoly::sched {

std::unique_ptr<ScheduleNode>
buildStatementSchedule(const scop::Scop& scop,
                       const pipeline::PipelineInfo& info,
                       std::size_t stmtIdx) {
  const pipeline::StatementPipelineInfo& st = info.statements.at(stmtIdx);
  const pb::IntTupleSet& rangeSigma = st.blockReps;                  // R_Σ
  const pb::IntTupleSet& domainSigma = scop.statement(stmtIdx).domain(); // D_Σ
  PIPOLY_CHECK_MSG(st.blockStarts.size() == rangeSigma.size() + 1 &&
                       st.blockStarts.back() == domainSigma.size(),
                   "pipeline info does not match the SCoP");

  // sch1: domain(R_Σ) -> band(identity(R_Σ)) — the loops over blocks.
  auto root = ScheduleNode::domain(rangeSigma);
  ScheduleNode* cursor =
      &root->addChild(ScheduleNode::band(pb::IntMap::identity(rangeSigma)));

  // expand(sch1, sch2, Σ): the expansion node splices sch2 (the intra-block
  // schedule) under sch1 with Σ, in interval form, as the contraction.
  cursor = &cursor->addChild(ScheduleNode::expansion(st.blockStarts));

  // sch2: mark(Q_S, Q_S^out) -> band(identity(D_Σ)). The mark sits before
  // the intra-block band so the AST phase can locate the pipeline loop.
  PipelineMark mark{stmtIdx, st.inRequirements, st.chainOrdering,
                    st.selfEdges, st.reduction};
  cursor = &cursor->addChild(
      ScheduleNode::mark(std::string(kPipelineMarkId), std::move(mark)));
  cursor = &cursor->addChild(
      ScheduleNode::band(pb::IntMap::identity(domainSigma)));
  cursor->addChild(ScheduleNode::leaf());
  return root;
}

std::unique_ptr<ScheduleNode>
buildPipelineSchedule(const scop::Scop& scop,
                      const pipeline::PipelineInfo& info) {
  PIPOLY_CHECK(info.statements.size() == scop.numStatements());
  auto seq = ScheduleNode::sequence();
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    seq->addChild(buildStatementSchedule(scop, info, s));
  return seq;
}

std::unique_ptr<ScheduleNode> buildOriginalSchedule(const scop::Scop& scop) {
  auto seq = ScheduleNode::sequence();
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const pb::IntTupleSet& domain = scop.statement(s).domain();
    ScheduleNode& d = seq->addChild(ScheduleNode::domain(domain));
    ScheduleNode& band =
        d.addChild(ScheduleNode::band(pb::IntMap::identity(domain)));
    band.addChild(ScheduleNode::leaf());
  }
  return seq;
}

namespace {

void validateStatementSubtree(const ScheduleNode& node, const scop::Scop& scop,
                              std::size_t stmtIdx) {
  PIPOLY_CHECK_MSG(node.kind() == NodeKind::Domain,
                   "statement subtree must start with a domain node");
  const pb::IntTupleSet& blockReps = node.domainSet();

  const ScheduleNode& blockBand = node.child(0);
  PIPOLY_CHECK(blockBand.kind() == NodeKind::Band);
  PIPOLY_CHECK_MSG(blockBand.partialSchedule().domain() == blockReps,
                   "block band must schedule exactly the block reps");

  const ScheduleNode& expansion = blockBand.child(0);
  PIPOLY_CHECK(expansion.kind() == NodeKind::Expansion);
  // The contraction's intervals must tile the statement domain, each
  // ending at its block representative.
  const std::vector<std::uint32_t>& starts = expansion.blockStarts();
  const pb::IntTupleSet& domain = scop.statement(stmtIdx).domain();
  PIPOLY_CHECK_MSG(starts.size() == blockReps.size() + 1 &&
                       starts.front() == 0 && starts.back() == domain.size(),
                   "contraction must cover the statement domain");
  const auto points = domain.points();
  const auto reps = blockReps.points();
  for (std::size_t b = 0; b < reps.size(); ++b)
    PIPOLY_CHECK_MSG(starts[b] < starts[b + 1] &&
                         points[starts[b + 1] - 1] == reps[b],
                     "contraction must map onto the block reps");

  const ScheduleNode& mark = expansion.child(0);
  PIPOLY_CHECK(mark.kind() == NodeKind::Mark);
  PIPOLY_CHECK(mark.markId() == kPipelineMarkId);
  PIPOLY_CHECK(mark.markInfo().stmtIdx == stmtIdx);

  const ScheduleNode& innerBand = mark.child(0);
  PIPOLY_CHECK(innerBand.kind() == NodeKind::Band);
  PIPOLY_CHECK_MSG(innerBand.partialSchedule().domain() ==
                       scop.statement(stmtIdx).domain(),
                   "inner band must schedule the full iteration domain");

  PIPOLY_CHECK(innerBand.child(0).kind() == NodeKind::Leaf);
}

} // namespace

void validatePipelineSchedule(const ScheduleNode& root,
                              const scop::Scop& scop) {
  PIPOLY_CHECK_MSG(root.kind() == NodeKind::Sequence,
                   "pipelined schedule must be rooted at a sequence node");
  PIPOLY_CHECK_MSG(root.numChildren() == scop.numStatements(),
                   "sequence must have one child per statement");
  for (std::size_t s = 0; s < root.numChildren(); ++s)
    validateStatementSubtree(root.child(s), scop, s);
}

std::vector<std::pair<std::size_t, pb::Tuple>>
flattenExecutionOrder(const ScheduleNode& root) {
  PIPOLY_CHECK(root.kind() == NodeKind::Sequence);
  std::vector<std::pair<std::size_t, pb::Tuple>> order;
  for (std::size_t s = 0; s < root.numChildren(); ++s) {
    const ScheduleNode& domainNode = root.child(s);
    PIPOLY_CHECK(domainNode.kind() == NodeKind::Domain);
    const ScheduleNode& blockBand = domainNode.child(0);
    const ScheduleNode& expansion = blockBand.child(0);
    const ScheduleNode& mark = expansion.child(0);
    const std::size_t stmtIdx = mark.markInfo().stmtIdx;

    // The outer band schedules block reps with an identity partial
    // schedule: walk them in lexicographic (= schedule) order and expand
    // each block to its interval of the inner band's lexicographically
    // sorted domain.
    const std::vector<std::uint32_t>& starts = expansion.blockStarts();
    const auto inner = mark.child(0).partialSchedule().domain().points();
    for (std::size_t b = 0; b + 1 < starts.size(); ++b)
      for (std::uint32_t r = starts[b]; r < starts[b + 1]; ++r)
        order.emplace_back(stmtIdx, inner[r]);
  }
  return order;
}

} // namespace pipoly::sched
