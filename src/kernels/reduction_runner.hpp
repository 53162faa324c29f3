#pragma once

// Real execution of a reduction-chain kernel with exact integer payloads.
//
// A statement with a declared reduction operator has the semantics
// A[f(it)] = A[f(it)] ⊕ g(other reads, it): the contribution g never
// reads the accumulator, so any execution order that folds every
// contribution exactly once yields the bit-identical result (all
// ReductionOp operators are exactly associative and commutative over
// uint64). That is what makes the sequential run an exact oracle for the
// relaxed parallel schedule.
//
// Two modes:
//  - oracle mode (no TaskProgram): accumulates straight into the array —
//    also the right executor for reductionMode=off programs, whose block
//    chain serializes the accumulation.
//  - task mode (with a TaskProgram containing ReductionCombine tasks):
//    every partial block accumulates into a private copy of the reduction
//    array (initialized to the operator's identity); the combine task's
//    fold k folds partial copy k back into the real array in block order
//    and resets it to the identity (so replayed programs stay correct).

#include "codegen/task_program.hpp"
#include "scop/scop.hpp"
#include "tasking/executor.hpp"

#include <cstdint>
#include <map>
#include <vector>

namespace pipoly::kernels {

class ReductionRunner {
public:
  /// Oracle / off-mode executor. `computeSize` > 0 runs the real compute
  /// kernel per instance (for wall-clock benchmarks); 0 keeps the pure
  /// hash payload (fast, for correctness tests).
  explicit ReductionRunner(const scop::Scop& scop, int computeSize = 0);

  /// Task-mode executor for `program` (lowered from the same SCoP):
  /// derives the iteration -> partial-slot map from the program's Block
  /// tasks for every statement that has a ReductionCombine task.
  ReductionRunner(const scop::Scop& scop, const codegen::TaskProgram& program,
                  int computeSize = 0);

  void reset();

  /// Executes one dynamic instance. A tuple of arity depth+1 is a combine
  /// fold (k, 0, ..., 0): fold partial copy k into the array.
  void execute(std::size_t stmtIdx, const pb::Tuple& iteration);

  tasking::StatementExecutor executor() {
    return [this](std::size_t stmtIdx, const pb::Tuple& it) {
      execute(stmtIdx, it);
    };
  }

  std::uint64_t fingerprint() const;

private:
  std::size_t flatIndex(std::size_t arrayId, const pb::Tuple& subs) const;
  std::uint64_t contributionSeed(std::size_t stmtIdx, const pb::Tuple& it,
                                 bool skipReductionReads);

  const scop::Scop* scop_;
  int computeSize_;
  std::vector<std::vector<std::uint64_t>> arrays_;
  // Per statement: iteration -> partial slot (empty when the statement has
  // no combine task in the program / in oracle mode).
  std::vector<std::map<pb::Tuple, std::size_t>> slotOf_;
  // Per statement: one private accumulator array copy per partial slot.
  std::vector<std::vector<std::vector<std::uint64_t>>> partials_;
  // Per statement with partial slots: the flat indices its accumulation
  // writes, sorted. A combine fold touches these elements only, so it
  // never writes an element that a task unordered with it may read.
  std::vector<std::vector<std::size_t>> accumulated_;
};

} // namespace pipoly::kernels
