#include "schedule/tree.hpp"

#include "support/assert.hpp"

#include <sstream>

namespace pipoly::sched {

std::string_view nodeKindName(NodeKind kind) {
  switch (kind) {
  case NodeKind::Domain:
    return "domain";
  case NodeKind::Band:
    return "band";
  case NodeKind::Sequence:
    return "sequence";
  case NodeKind::Mark:
    return "mark";
  case NodeKind::Expansion:
    return "expansion";
  case NodeKind::Leaf:
    return "leaf";
  }
  PIPOLY_UNREACHABLE("node kind");
}

std::unique_ptr<ScheduleNode> ScheduleNode::domain(pb::IntTupleSet set) {
  auto n = std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Domain));
  n->domain_ = std::move(set);
  return n;
}

std::unique_ptr<ScheduleNode> ScheduleNode::band(pb::IntMap partialSchedule) {
  auto n = std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Band));
  n->map_ = std::move(partialSchedule);
  return n;
}

std::unique_ptr<ScheduleNode> ScheduleNode::sequence() {
  return std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Sequence));
}

std::unique_ptr<ScheduleNode> ScheduleNode::mark(std::string id,
                                                 PipelineMark info) {
  auto n = std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Mark));
  n->markId_ = std::move(id);
  n->markInfo_ = std::move(info);
  return n;
}

std::unique_ptr<ScheduleNode>
ScheduleNode::expansion(std::vector<std::uint32_t> blockStarts) {
  auto n = std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Expansion));
  n->blockStarts_ = std::move(blockStarts);
  return n;
}

std::unique_ptr<ScheduleNode> ScheduleNode::leaf() {
  return std::unique_ptr<ScheduleNode>(new ScheduleNode(NodeKind::Leaf));
}

ScheduleNode& ScheduleNode::addChild(std::unique_ptr<ScheduleNode> child) {
  PIPOLY_CHECK_MSG(kind_ != NodeKind::Leaf, "leaf nodes have no children");
  PIPOLY_CHECK_MSG(kind_ == NodeKind::Sequence || children_.empty(),
                   "only sequence nodes may have multiple children");
  children_.push_back(std::move(child));
  return *children_.back();
}

const pb::IntTupleSet& ScheduleNode::domainSet() const {
  PIPOLY_CHECK(kind_ == NodeKind::Domain);
  return domain_;
}

const pb::IntMap& ScheduleNode::partialSchedule() const {
  PIPOLY_CHECK(kind_ == NodeKind::Band);
  return map_;
}

const std::string& ScheduleNode::markId() const {
  PIPOLY_CHECK(kind_ == NodeKind::Mark);
  return markId_;
}

const PipelineMark& ScheduleNode::markInfo() const {
  PIPOLY_CHECK(kind_ == NodeKind::Mark);
  return markInfo_;
}

const std::vector<std::uint32_t>& ScheduleNode::blockStarts() const {
  PIPOLY_CHECK(kind_ == NodeKind::Expansion);
  return blockStarts_;
}

const ScheduleNode* ScheduleNode::findMark(std::string_view id) const {
  if (kind_ == NodeKind::Mark && markId_ == id)
    return this;
  for (const auto& c : children_)
    if (const ScheduleNode* found = c->findMark(id))
      return found;
  return nullptr;
}

std::string ScheduleNode::toString(int indent) const {
  std::ostringstream os;
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad << nodeKindName(kind_);
  switch (kind_) {
  case NodeKind::Domain:
    os << " |set|=" << domain_.size() << " space=" << domain_.space().name();
    break;
  case NodeKind::Band:
    os << " |sched|=" << map_.size();
    break;
  case NodeKind::Mark:
    os << " \"" << markId_ << "\" stmt=" << markInfo_.stmtIdx
       << " inDeps=" << markInfo_.inRequirements.size();
    break;
  case NodeKind::Expansion:
    os << " |contraction|=" << (blockStarts_.empty() ? 0 : blockStarts_.back());
    break;
  default:
    break;
  }
  os << '\n';
  for (const auto& c : children_)
    os << c->toString(indent + 1);
  return os.str();
}

} // namespace pipoly::sched
