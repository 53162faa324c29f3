#pragma once

// Task-graph optimization — a pass over codegen::TaskProgram that runs
// between compilePipeline() and execution. The raw eq.-4 lowering emits
// one task per block with every derived dependency edge; this module
// legally thins that graph before any backend sees it:
//
//   1. Transitive reduction — drop every in-dependency already implied by
//      the happens-before closure of the remaining edges. Chain-ordered
//      programs especially re-name edges the funcCount chain already
//      enforces (a cross-statement edge to a source block that an earlier
//      same-statement block, reachable through the chain, already waited
//      for). The closure of the reduced graph is *identical* to the
//      original, so every execution order legal before stays legal and
//      vice versa; only the OpenMP depend lists / threadpool resolve work
//      shrink.
//
//   2. Chain fusion — collapse runs of adjacent same-statement tasks
//      where the predecessor has exactly one dependent and the successor
//      exactly one in-dependency (on that predecessor) into one fused
//      task with concatenated iteration lists. Such a pair admits no
//      schedule in which anything runs between them usefully — the
//      successor could never start before the predecessor finished, and
//      nothing else waits on the predecessor — so fusing changes no
//      happens-before fact at block granularity. `fusionWidth` bounds the
//      run length so the fill/drain overlap of the pipeline (Fig. 10) is
//      preserved.
//
//   3. Dependency-slot interning (SlotTable) — every in-dependency
//      already names its producing task's id (lowering records it, the
//      passes keep it in step), so the table is those ids in CSR form:
//      the dense uint32 slot of each live (idx, tag) pair. Backends that
//      honour TaskingLayer::reserveDependencySlots then resolve
//      dependencies with O(1) array indexing instead of
//      std::map<std::pair<int, int64>> lookups; the simulator does the
//      same through the precomputed producer lists.
//
// Legality argument, in one line: (1) preserves the happens-before
// closure by construction, (2) only merges pairs already totally ordered
// with no external observer of the intermediate state, (3) renames
// without reordering. The property test (tests/opt_test.cpp) checks
// closure equality at block granularity for all three combined.

#include "codegen/task_program.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace pipoly::opt {

struct OptimizeOptions {
  /// Pass 1: drop transitively-implied in-dependency edges.
  bool transitiveReduction = true;
  /// Pass 2: maximum number of original tasks merged into one fused
  /// task. 1 disables fusion; the default keeps tasks small enough that
  /// the pipeline's fill/drain overlap survives.
  std::size_t fusionWidth = 8;
};

struct OptimizeStats {
  std::size_t tasksBefore = 0;
  std::size_t tasksAfter = 0;
  std::size_t edgesBefore = 0; // in-dependency edges
  std::size_t edgesAfter = 0;
  std::size_t edgesRemoved = 0; // by transitive reduction alone
  std::size_t tasksFused = 0;   // original tasks folded into a neighbour

  double edgeReductionPercent() const;
  double taskReductionPercent() const;
  std::string toString() const;
};

/// Runs the configured passes in place. The unoptimized program is the
/// one never passed here (transitiveReduction = false with fusionWidth = 1
/// leaves it untouched too). The optimized program still satisfies
/// TaskProgram::validate(): the same-statement funcCount chain is never
/// removed under chainOrdering, tasks stay creation-ordered, and
/// iterations still partition domains.
OptimizeStats optimize(codegen::TaskProgram& program,
                       const OptimizeOptions& options = {});

/// Dense dependency-slot interning of a (possibly optimized) program.
/// Slot ids are the producing task ids (TaskDep::producer): out tags are
/// unique per task and every in-dependency names some earlier task's out
/// tag, so task ids are exactly the live slots, numbered densely in
/// creation order.
struct SlotTable {
  std::uint32_t numSlots = 0;           // == program.tasks.size()
  std::vector<std::uint32_t> inSlots;   // flattened producer slots
  std::vector<std::uint32_t> inOffsets; // per task: [k], [k+1]) into inSlots

  /// Producer slots of task `id`'s in-dependencies.
  const std::uint32_t* inBegin(std::size_t id) const {
    return inSlots.data() + inOffsets[id];
  }
  const std::uint32_t* inEnd(std::size_t id) const {
    return inSlots.data() + inOffsets[id + 1];
  }
  std::size_t inCount(std::size_t id) const {
    return inOffsets[id + 1] - inOffsets[id];
  }

  /// True when this table is the one buildSlotTable makes of `program`:
  /// one slot per task, and every task's slots equal to its
  /// in-dependencies' producers, in order, each an *earlier* task.
  /// O(tasks + edges). Lets a
  /// table built once be reused across executions (the slot-table
  /// executeTaskProgram overload and CompiledPipeline both check this
  /// instead of rebuilding the table per run).
  bool compatibleWith(const codegen::TaskProgram& program) const;
};

/// Copies every in-dependency's producer into the table. O(tasks +
/// edges); throws when a producer is not an earlier task.
SlotTable buildSlotTable(const codegen::TaskProgram& program);

} // namespace pipoly::opt
