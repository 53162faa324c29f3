#include "scop/scop.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <sstream>

namespace pipoly::scop {

std::string_view reductionOpName(ReductionOp op) {
  switch (op) {
  case ReductionOp::None:
    return "none";
  case ReductionOp::Add:
    return "add";
  case ReductionOp::Mul:
    return "mul";
  case ReductionOp::Xor:
    return "xor";
  case ReductionOp::Min:
    return "min";
  case ReductionOp::Max:
    return "max";
  }
  return "?";
}

std::uint64_t applyReductionOp(ReductionOp op, std::uint64_t a,
                               std::uint64_t b) {
  switch (op) {
  case ReductionOp::None:
    break;
  case ReductionOp::Add:
    return a + b;
  case ReductionOp::Mul:
    return a * b;
  case ReductionOp::Xor:
    return a ^ b;
  case ReductionOp::Min:
    return a < b ? a : b;
  case ReductionOp::Max:
    return a > b ? a : b;
  }
  PIPOLY_CHECK_MSG(false, "applyReductionOp on ReductionOp::None");
  return 0;
}

std::uint64_t reductionIdentity(ReductionOp op) {
  switch (op) {
  case ReductionOp::None:
    break;
  case ReductionOp::Add:
  case ReductionOp::Xor:
  case ReductionOp::Max:
    return 0;
  case ReductionOp::Min:
    return ~std::uint64_t{0};
  case ReductionOp::Mul:
    return 1;
  }
  PIPOLY_CHECK_MSG(false, "reductionIdentity on ReductionOp::None");
  return 0;
}

pb::IntMap Scop::accessRelation(std::size_t stmtIdx,
                                const Access& access) const {
  const Statement& stmt = statement(stmtIdx);
  const Array& arr = array(access.arrayId);
  PIPOLY_CHECK_MSG(access.subscripts.numOutputs() == arr.rank(),
                   "subscript count does not match rank of array " + arr.name);
  PIPOLY_CHECK_MSG(access.subscripts.numInputs() ==
                       stmt.depth() + access.numAuxDims(),
                   "subscript function arity mismatch for " + stmt.name());

  // Auxiliary dimensions range over a rectangle; enumerate it once.
  std::vector<pb::Tuple> auxPoints;
  if (access.numAuxDims() == 0)
    auxPoints.push_back(pb::Tuple{});
  else
    for (pb::TupleView aux : pb::IntTupleSet::rectangle(
                                 pb::Space("aux", access.numAuxDims()),
                                 access.auxExtents)
                                 .points())
      auxPoints.emplace_back(aux);

  const std::size_t depth = stmt.depth(), rank = arr.rank();
  pb::RowBuffer rows;
  rows.reserve(stmt.domain().size() * auxPoints.size() * (depth + rank));
  for (pb::TupleView itv : stmt.domain().points()) {
    const pb::Tuple it(itv);
    for (const pb::Tuple& aux : auxPoints) {
      pb::Tuple subs = access.subscripts.evaluate(concat(it, aux));
      for (std::size_t d = 0; d < rank; ++d)
        PIPOLY_CHECK_MSG(subs[d] >= 0 && subs[d] < arr.shape[d],
                         "access out of bounds: " + stmt.name() +
                             it.toString() + " -> " + arr.name +
                             subs.toString());
      pb::rows::append(rows, it.data(), depth);
      pb::rows::append(rows, subs.data(), rank);
    }
  }
  // Domain iteration is in order; with a single aux point the rows come
  // out sorted and fromRows skips the sort after one linear check.
  return pb::IntMap::fromRows(stmt.space(), arr.space(), std::move(rows));
}

namespace {
pb::IntMap unionOfAccessRelations(const Scop& scop, std::size_t stmtIdx,
                                  std::size_t arrayId,
                                  const std::vector<Access>& accesses) {
  pb::IntMap result(scop.statement(stmtIdx).space(),
                    scop.array(arrayId).space());
  for (const Access& a : accesses)
    if (a.arrayId == arrayId)
      result = result.unite(scop.accessRelation(stmtIdx, a));
  return result;
}

std::vector<std::size_t> uniqueArrayIds(const std::vector<Access>& accesses) {
  std::vector<std::size_t> ids;
  for (const Access& a : accesses)
    ids.push_back(a.arrayId);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}
} // namespace

pb::IntMap Scop::writeRelation(std::size_t stmtIdx,
                               std::size_t arrayId) const {
  return unionOfAccessRelations(*this, stmtIdx, arrayId,
                                statement(stmtIdx).writes());
}

pb::IntMap Scop::readRelation(std::size_t stmtIdx, std::size_t arrayId) const {
  return unionOfAccessRelations(*this, stmtIdx, arrayId,
                                statement(stmtIdx).reads());
}

AccessRelations::AccessRelations(const Scop& scop,
                                 std::shared_ptr<const BuiltRelations> base)
    : scop_(scop), base_(std::move(base)) {
  const std::size_t pairs = scop.numStatements() * scop.arrays().size();
  PIPOLY_CHECK_MSG(base_ == nullptr || (base_->writes.size() == pairs &&
                                        base_->reads.size() == pairs),
                   "shared access relations belong to another scop");
  built_.writes.resize(pairs);
  built_.reads.resize(pairs);
}

std::size_t AccessRelations::index(std::size_t stmtIdx,
                                   std::size_t arrayId) const {
  PIPOLY_CHECK_MSG(stmtIdx < scop_.numStatements() &&
                       arrayId < scop_.arrays().size(),
                   "access relation index out of range");
  return stmtIdx * scop_.arrays().size() + arrayId;
}

const pb::IntMap& AccessRelations::write(std::size_t stmtIdx,
                                         std::size_t arrayId) const {
  const std::size_t k = index(stmtIdx, arrayId);
  if (base_ != nullptr && base_->writes[k])
    return *base_->writes[k];
  std::optional<pb::IntMap>& rel = built_.writes[k];
  if (!rel)
    rel = scop_.writeRelation(stmtIdx, arrayId);
  return *rel;
}

const pb::IntMap& AccessRelations::read(std::size_t stmtIdx,
                                        std::size_t arrayId) const {
  const std::size_t k = index(stmtIdx, arrayId);
  if (base_ != nullptr && base_->reads[k])
    return *base_->reads[k];
  std::optional<pb::IntMap>& rel = built_.reads[k];
  if (!rel)
    rel = scop_.readRelation(stmtIdx, arrayId);
  return *rel;
}

std::shared_ptr<const BuiltRelations> AccessRelations::release() && {
  PIPOLY_CHECK_MSG(base_ == nullptr,
                   "only a table without a base may be released");
  return std::make_shared<const BuiltRelations>(std::move(built_));
}

std::vector<std::size_t> Scop::arraysWrittenBy(std::size_t stmtIdx) const {
  return uniqueArrayIds(statement(stmtIdx).writes());
}

std::vector<std::size_t> Scop::arraysReadBy(std::size_t stmtIdx) const {
  return uniqueArrayIds(statement(stmtIdx).reads());
}

std::string Scop::toString() const {
  std::ostringstream os;
  os << "scop " << name_ << " {\n";
  for (const Array& a : arrays_) {
    os << "  array " << a.name << '[';
    for (std::size_t i = 0; i < a.shape.size(); ++i)
      os << (i ? ", " : "") << a.shape[i];
    os << "]\n";
  }
  for (const Statement& s : statements_) {
    os << "  statement " << s.name() << " depth=" << s.depth()
       << " |domain|=" << s.domain().size();
    if (s.reductionOp() != ReductionOp::None)
      os << " reduce=" << reductionOpName(s.reductionOp());
    os << '\n';
  }
  os << "}";
  return os.str();
}

} // namespace pipoly::scop
