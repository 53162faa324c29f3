#include "kernels/reduction_runner.hpp"

#include "kernels/compute.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

#include <algorithm>

namespace pipoly::kernels {

ReductionRunner::ReductionRunner(const scop::Scop& scop, int computeSize)
    : scop_(&scop), computeSize_(computeSize),
      slotOf_(scop.numStatements()), partials_(scop.numStatements()),
      accumulated_(scop.numStatements()) {
  arrays_.reserve(scop.arrays().size());
  for (const scop::Array& a : scop.arrays()) {
    std::size_t total = 1;
    for (pb::Value extent : a.shape)
      total *= static_cast<std::size_t>(extent);
    arrays_.emplace_back(total);
  }
  reset();
}

ReductionRunner::ReductionRunner(const scop::Scop& scop,
                                 const codegen::TaskProgram& program,
                                 int computeSize)
    : ReductionRunner(scop, computeSize) {
  // Partial slots exist exactly for the statements the lowering gave a
  // combine task; Block tasks claim slots in task order, which is also
  // the order the combine folds them back.
  std::vector<bool> hasCombine(scop.numStatements(), false);
  for (const codegen::Task& t : program.tasks)
    if (t.kind == codegen::TaskKind::ReductionCombine)
      hasCombine[t.stmtIdx] = true;
  for (const codegen::Task& t : program.tasks) {
    if (t.kind != codegen::TaskKind::Block || !hasCombine[t.stmtIdx])
      continue;
    const std::size_t slot = partials_[t.stmtIdx].size();
    for (const pb::TupleView it : t.iterations)
      slotOf_[t.stmtIdx].emplace(it, slot);
    const scop::Statement& stmt = scop.statement(t.stmtIdx);
    PIPOLY_CHECK(stmt.reductionOp() != scop::ReductionOp::None);
    const std::size_t arrayId = stmt.writes().front().arrayId;
    partials_[t.stmtIdx].emplace_back(
        arrays_[arrayId].size(),
        scop::reductionIdentity(stmt.reductionOp()));
  }
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    if (partials_[s].empty())
      continue;
    const scop::Access& write = scop.statement(s).writes().front();
    std::vector<std::size_t>& flat = accumulated_[s];
    for (const pb::TupleView it : scop.statement(s).domain().points())
      flat.push_back(flatIndex(write.arrayId, write.subscripts.evaluate(it)));
    std::sort(flat.begin(), flat.end());
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  }
}

void ReductionRunner::reset() {
  for (std::size_t a = 0; a < arrays_.size(); ++a)
    for (std::size_t i = 0; i < arrays_[a].size(); ++i)
      arrays_[a][i] = hashCombine(0xabcd + a, i);
  for (std::size_t s = 0; s < partials_.size(); ++s) {
    if (partials_[s].empty())
      continue;
    const std::uint64_t id =
        scop::reductionIdentity(scop_->statement(s).reductionOp());
    for (auto& copy : partials_[s])
      std::fill(copy.begin(), copy.end(), id);
  }
}

std::size_t ReductionRunner::flatIndex(std::size_t arrayId,
                                       const pb::Tuple& subs) const {
  const scop::Array& arr = scop_->array(arrayId);
  std::size_t flat = 0;
  for (std::size_t d = 0; d < subs.size(); ++d)
    flat = flat * static_cast<std::size_t>(arr.shape[d]) +
           static_cast<std::size_t>(subs[d]);
  return flat;
}

std::uint64_t ReductionRunner::contributionSeed(std::size_t stmtIdx,
                                                const pb::Tuple& it,
                                                bool skipReductionReads) {
  const scop::Statement& stmt = scop_->statement(stmtIdx);
  std::uint64_t seed = hashCombine(0x5u, stmtIdx);
  for (std::size_t d = 0; d < it.size(); ++d)
    seed = hashCombine(seed, static_cast<std::uint64_t>(it[d]));
  const std::size_t accArray =
      stmt.writes().empty() ? ~std::size_t{0} : stmt.writes().front().arrayId;
  for (const scop::Access& read : stmt.reads()) {
    // The accumulator read is the ⊕ itself, not part of the contribution.
    if (skipReductionReads && read.arrayId == accArray)
      continue;
    seed = hashCombine(
        seed,
        arrays_[read.arrayId][flatIndex(read.arrayId,
                                        read.subscripts.evaluate(it))]);
  }
  return computeSize_ > 0 ? computeKernel(seed, 64, computeSize_) : seed;
}

void ReductionRunner::execute(std::size_t stmtIdx, const pb::Tuple& it) {
  const scop::Statement& stmt = scop_->statement(stmtIdx);

  if (it.size() == stmt.depth() + 1) {
    // Combine fold (k, 0, ..., 0): fold private copy k into the array and
    // reset it to the identity (the next replay reuses the slot).
    const scop::ReductionOp op = stmt.reductionOp();
    PIPOLY_CHECK(op != scop::ReductionOp::None);
    const std::size_t k = static_cast<std::size_t>(it[0]);
    PIPOLY_CHECK(k < partials_[stmtIdx].size());
    const std::size_t arrayId = stmt.writes().front().arrayId;
    std::vector<std::uint64_t>& partial = partials_[stmtIdx][k];
    std::vector<std::uint64_t>& arr = arrays_[arrayId];
    const std::uint64_t id = scop::reductionIdentity(op);
    for (const std::size_t e : accumulated_[stmtIdx]) {
      arr[e] = scop::applyReductionOp(op, arr[e], partial[e]);
      partial[e] = id;
    }
    return;
  }

  if (stmt.reductionOp() == scop::ReductionOp::None) {
    const std::uint64_t value =
        contributionSeed(stmtIdx, it, /*skipReductionReads=*/false);
    for (const scop::Access& write : stmt.writes())
      arrays_[write.arrayId]
             [flatIndex(write.arrayId, write.subscripts.evaluate(it))] = value;
    return;
  }

  // Accumulation instance: fold the contribution into the partial copy of
  // this iteration's block (task mode) or straight into the array (oracle
  // mode / off-mode programs, whose chain serializes the statement).
  const scop::ReductionOp op = stmt.reductionOp();
  const std::uint64_t c = contributionSeed(stmtIdx, it,
                                           /*skipReductionReads=*/true);
  const scop::Access& write = stmt.writes().front();
  const std::size_t flat =
      flatIndex(write.arrayId, write.subscripts.evaluate(it));
  if (!slotOf_[stmtIdx].empty()) {
    const auto slot = slotOf_[stmtIdx].find(it);
    PIPOLY_CHECK_MSG(slot != slotOf_[stmtIdx].end(),
                     "iteration missing from the partial-slot map");
    std::uint64_t& cell = partials_[stmtIdx][slot->second][flat];
    cell = scop::applyReductionOp(op, cell, c);
  } else {
    std::uint64_t& cell = arrays_[write.arrayId][flat];
    cell = scop::applyReductionOp(op, cell, c);
  }
}

std::uint64_t ReductionRunner::fingerprint() const {
  std::uint64_t acc = 0x2718;
  for (const auto& arr : arrays_)
    for (std::uint64_t v : arr)
      acc = hashCombine(acc, v);
  return acc;
}

} // namespace pipoly::kernels
