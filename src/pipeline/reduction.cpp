#include "pipeline/reduction.hpp"

#include "support/assert.hpp"

namespace pipoly::pipeline {

std::string_view toString(ReductionReject r) {
  switch (r) {
  case ReductionReject::None:
    return "none";
  case ReductionReject::NotSingleWrite:
    return "not-single-write";
  case ReductionReject::AuxDims:
    return "aux-dims";
  case ReductionReject::NoMatchingRead:
    return "no-matching-read";
  case ReductionReject::ExtraArrayRead:
    return "extra-array-read";
  case ReductionReject::NoDeclaredOp:
    return "no-declared-op";
  case ReductionReject::NoSelfDependence:
    return "no-self-dependence";
  case ReductionReject::kCount:
    break;
  }
  return "?";
}

namespace {

bool sameSubscripts(const pb::AffineMap& a, const pb::AffineMap& b) {
  if (a.numInputs() != b.numInputs() || a.numOutputs() != b.numOutputs())
    return false;
  for (std::size_t o = 0; o < a.numOutputs(); ++o) {
    const pb::AffineExpr& ea = a.outputs()[o];
    const pb::AffineExpr& eb = b.outputs()[o];
    if (ea.constantTerm() != eb.constantTerm())
      return false;
    for (std::size_t d = 0; d < ea.numDims(); ++d)
      if (ea.coeff(d) != eb.coeff(d))
        return false;
  }
  return true;
}

} // namespace

ReductionInfo classifyReduction(const scop::AccessRelations& rel,
                                std::size_t stmtIdx) {
  const scop::Statement& stmt = rel.scop().statement(stmtIdx);
  ReductionInfo info;
  auto reject = [&](ReductionReject r) {
    info.reject = r;
    return info;
  };

  if (stmt.writes().size() != 1)
    return reject(ReductionReject::NotSingleWrite);
  const scop::Access& write = stmt.writes().front();
  if (write.numAuxDims() != 0)
    return reject(ReductionReject::AuxDims);

  // Exactly one read of the written array, with the identical subscript
  // function: the A[f(i)] operand itself. Any other read of A would feed
  // the combined expression with order-dependent values.
  const scop::Access* arrayRead = nullptr;
  for (const scop::Access& read : stmt.reads()) {
    if (read.arrayId != write.arrayId)
      continue;
    if (arrayRead != nullptr)
      return reject(ReductionReject::ExtraArrayRead);
    arrayRead = &read;
  }
  if (arrayRead == nullptr || arrayRead->numAuxDims() != 0 ||
      !sameSubscripts(arrayRead->subscripts, write.subscripts))
    return reject(ReductionReject::NoMatchingRead);

  if (stmt.reductionOp() == scop::ReductionOp::None)
    return reject(ReductionReject::NoDeclaredOp);

  // A write relation that is injective over the domain accumulates into
  // each element at most once — no self-dependence, nothing to relax, and
  // the legacy route handles the statement as-is.
  if (rel.write(stmtIdx, write.arrayId).isInjective())
    return reject(ReductionReject::NoSelfDependence);

  info.relaxed = true;
  info.arrayId = write.arrayId;
  info.op = stmt.reductionOp();
  return info;
}

std::vector<ReductionInfo> classifyReductions(const scop::Scop& scop) {
  const scop::AccessRelations rel(scop);
  std::vector<ReductionInfo> infos(scop.numStatements());
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    infos[s] = classifyReduction(rel, s);
  return infos;
}

pb::IntMap relaxedSelfDependences(const scop::Scop& scop,
                                  std::size_t stmtIdx) {
  const ReductionInfo info = classifyReduction(scop, stmtIdx);
  const scop::Statement& stmt = scop.statement(stmtIdx);
  if (!info.relaxed)
    return pb::IntMap(stmt.space(), stmt.space());
  // All accesses of the classified statement into the reduction array:
  // the single write and the matching read. Flow, anti and output pairs
  // all join on the same relation, so one symmetric join suffices.
  const pb::IntMap wr = scop.writeRelation(stmtIdx, info.arrayId);
  const pb::IntMap rel = wr.inverse().compose(wr);
  std::vector<pb::IntMap::Pair> pairs;
  for (const auto& [i, j] : rel.pairs())
    if (i < j)
      pairs.emplace_back(i, j);
  return pb::IntMap(stmt.space(), stmt.space(), std::move(pairs));
}

} // namespace pipoly::pipeline
