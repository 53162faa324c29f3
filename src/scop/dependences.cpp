#include "scop/dependences.hpp"

#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::scop {

namespace {

/// { i -> j : from relates i to element m, to relates j to the same m },
/// i.e. to^-1 ( from ) with `from`'s range and `to`'s range in the same
/// array space.
pb::IntMap joinOnArray(const pb::IntMap& from, const pb::IntMap& to) {
  return to.inverse().compose(from);
}

pb::IntMap keepLexIncreasing(const pb::IntMap& m) {
  std::vector<pb::IntMap::Pair> pairs;
  for (const auto& [i, j] : m.pairs())
    if (i < j)
      pairs.emplace_back(i, j);
  return pb::IntMap(m.domainSpace(), m.rangeSpace(), std::move(pairs));
}

} // namespace

pb::IntMap flowDependences(const AccessRelations& rel, std::size_t srcIdx,
                           std::size_t tgtIdx) {
  const Scop& scop = rel.scop();
  const Statement& src = scop.statement(srcIdx);
  const Statement& tgt = scop.statement(tgtIdx);
  pb::IntMap result(src.space(), tgt.space());
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    const pb::IntMap& wr = rel.write(srcIdx, arrayId);
    const pb::IntMap& rd = rel.read(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    result = result.unite(joinOnArray(wr, rd));
  }
  if (srcIdx == tgtIdx)
    result = keepLexIncreasing(result);
  return result;
}

bool dependsOn(const AccessRelations& rel, std::size_t tgtIdx,
               std::size_t srcIdx) {
  PIPOLY_CHECK_MSG(srcIdx <= tgtIdx,
                   "dependsOn expects source textually before target");
  // Within one nest only lex-increasing pairs count, which needs the
  // relation itself.
  if (srcIdx == tgtIdx)
    return !flowDependences(rel, srcIdx, tgtIdx).empty();
  // Across nests every iteration pair counts: a dependence exists iff
  // some element the source writes is one the target reads.
  for (std::size_t arrayId : rel.scop().arraysWrittenBy(srcIdx)) {
    const pb::IntMap& rd = rel.read(tgtIdx, arrayId);
    if (rd.empty())
      continue;
    const pb::IntTupleSet written = rel.write(srcIdx, arrayId).range();
    for (const auto& [j, elem] : rd.pairs())
      if (written.contains(elem))
        return true;
  }
  return false;
}

pb::IntMap selfDependences(const AccessRelations& rel, std::size_t stmtIdx) {
  const Statement& stmt = rel.scop().statement(stmtIdx);
  pb::IntMap result(stmt.space(), stmt.space());

  for (std::size_t arrayId : rel.scop().arraysWrittenBy(stmtIdx)) {
    const pb::IntMap& wr = rel.write(stmtIdx, arrayId);
    // Flow: write at i, read at j.
    const pb::IntMap& rd = rel.read(stmtIdx, arrayId);
    if (!rd.empty()) {
      result = result.unite(joinOnArray(wr, rd)); // flow (i writes, j reads)
      result = result.unite(joinOnArray(rd, wr)); // anti (i reads, j writes)
    }
    // Output: write at i, write at j.
    result = result.unite(joinOnArray(wr, wr));
  }
  return keepLexIncreasing(result);
}

void validateProgramModel(const Scop& scop) {
  for (std::size_t t = 0; t < scop.numStatements(); ++t) {
    for (std::size_t arrayId : scop.arraysWrittenBy(t)) {
      for (std::size_t s = 0; s < t; ++s) {
        // An access touches its array iff its statement runs and every
        // aux extent is positive (its access relation is non-empty).
        const Statement& stmt = scop.statement(s);
        bool touches = false;
        for (const auto* accesses : {&stmt.writes(), &stmt.reads()})
          for (const Access& a : *accesses)
            touches = touches ||
                      (a.arrayId == arrayId && !stmt.domain().empty() &&
                       std::ranges::all_of(a.auxExtents,
                                           [](pb::Value e) { return e > 0; }));
        PIPOLY_CHECK_MSG(
            !touches,
            "statement " + scop.statement(t).name() + " writes array " +
                scop.array(arrayId).name + " that earlier statement " +
                stmt.name() + " accesses — outside the paper's program model");
      }
    }
  }
}

std::vector<bool> parallelDims(const Scop& scop, std::size_t stmtIdx) {
  const Statement& stmt = scop.statement(stmtIdx);
  std::vector<bool> parallel(stmt.depth(), true);
  const pb::IntMap deps = selfDependences(scop, stmtIdx);
  for (const auto& [i, j] : deps.pairs()) {
    for (std::size_t d = 0; d < stmt.depth(); ++d) {
      if (i[d] != j[d]) {
        parallel[d] = false; // dependence carried at depth d
        break;
      }
    }
  }
  return parallel;
}

} // namespace pipoly::scop
