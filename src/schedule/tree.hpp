#pragma once

// Schedule trees (§3.1, §5.2) — the isl-style tree representation of
// execution orders, restricted to the node types the paper uses: domain,
// band, sequence, mark, expansion and leaf nodes.
//
// Band nodes carry a partial schedule (an IntMap from domain elements to
// schedule time); in Algorithm 2 these are identity maps, meaning
// "iterate this set in lexicographic order".

#include "pipeline/detect.hpp"
#include "presburger/map.hpp"
#include "presburger/set.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pipoly::sched {

enum class NodeKind { Domain, Band, Sequence, Mark, Expansion, Leaf };

std::string_view nodeKindName(NodeKind kind);

/// The payload of the mark node Algorithm 2 inserts above the intra-block
/// band: the dependency information of the statement's tasks (the
/// pw_multi_aff_list / pw_multi_aff pair of §5.2 in explicit form).
struct PipelineMark {
  std::size_t stmtIdx = 0;
  std::vector<pipeline::InRequirement> inRequirements;
  /// Same-nest ordering mode and (when relaxed) the cross-block
  /// self-dependence edges; see StatementPipelineInfo.
  bool chainOrdering = true;
  pb::IntMap selfEdges;
  /// Reduction relaxation of this statement; see StatementPipelineInfo.
  pipeline::ReductionInfo reduction;
};

class ScheduleNode {
public:
  static std::unique_ptr<ScheduleNode> domain(pb::IntTupleSet set);
  static std::unique_ptr<ScheduleNode> band(pb::IntMap partialSchedule);
  static std::unique_ptr<ScheduleNode> sequence();
  static std::unique_ptr<ScheduleNode> mark(std::string id, PipelineMark info);
  /// The contraction Σ_S of Algorithm 2 in interval form: outer element
  /// b (the b-th block representative) expands to the inner domain rows
  /// [blockStarts[b], blockStarts[b + 1]) (see
  /// StatementPipelineInfo::blockStarts).
  static std::unique_ptr<ScheduleNode>
  expansion(std::vector<std::uint32_t> blockStarts);
  static std::unique_ptr<ScheduleNode> leaf();

  NodeKind kind() const { return kind_; }

  ScheduleNode& addChild(std::unique_ptr<ScheduleNode> child);
  std::size_t numChildren() const { return children_.size(); }
  const ScheduleNode& child(std::size_t i) const { return *children_.at(i); }
  ScheduleNode& child(std::size_t i) { return *children_.at(i); }

  // Payload accessors; each checks the node kind.
  const pb::IntTupleSet& domainSet() const;
  const pb::IntMap& partialSchedule() const;
  const std::string& markId() const;
  const PipelineMark& markInfo() const;
  const std::vector<std::uint32_t>& blockStarts() const;

  /// Depth-first search for the first mark node with the given id under
  /// this node (inclusive); nullptr when absent.
  const ScheduleNode* findMark(std::string_view id) const;

  std::string toString(int indent = 0) const;

private:
  explicit ScheduleNode(NodeKind kind) : kind_(kind) {}

  NodeKind kind_;
  std::vector<std::unique_ptr<ScheduleNode>> children_;

  pb::IntTupleSet domain_;
  pb::IntMap map_; // band partial schedule
  std::vector<std::uint32_t> blockStarts_; // expansion
  std::string markId_;
  PipelineMark markInfo_{};
};

/// Identifier of the mark nodes Algorithm 2 inserts.
inline constexpr std::string_view kPipelineMarkId = "pipeline";

} // namespace pipoly::sched
