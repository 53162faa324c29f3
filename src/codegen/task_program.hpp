#pragma once

// §5.4 — code generation. The bodies of the pipeline loops are extracted
// into tasks; dependency vectors become integer tags (each dimension is
// multiplied by a large stride and summed — the paper's linearisation) and
// are paired with a statement index to distinguish the pw_multi_affs.
//
// The result, TaskProgram, is the backend-agnostic task-parallel program:
// a creation-ordered list of tasks, each with
//   * its statement and block identity,
//   * the block's member iterations (what the extracted function executes),
//   * one out-dependency (idx, tag),
//   * in-dependencies (idx, tag) from the Q_S maps, plus the same-nest
//     ordering dependency (the funcCount protocol of Fig. 8) expressed as
//     an in-dependency on the previous block of the same statement.

#include "ast/ast.hpp"
#include "pipeline/detect.hpp"
#include "presburger/tuple.hpp"
#include "scop/scop.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pipoly::codegen {

/// (statement slot, linearised block vector) — the depend-clause key.
struct TaskDep {
  int idx;
  std::int64_t tag;
  /// True for the same-statement ordering dependency (funcCount protocol).
  bool selfOrdering = false;

  friend bool operator==(const TaskDep&, const TaskDep&) = default;
};

/// What a task executes. Block tasks run statement iterations; a
/// ReductionCombine task folds the partial accumulators of a relaxed
/// reduction statement back into its array (one fold call per partial,
/// in deterministic block order).
enum class TaskKind : unsigned char { Block, ReductionCombine };

struct Task {
  std::size_t id; // creation order, 0-based
  std::size_t stmtIdx;
  pb::Tuple blockRep;
  /// For Block tasks: member iterations of the block (arity = statement
  /// depth, lexicographic order). For ReductionCombine tasks: one fold
  /// step per partial block, encoded as arity depth+1 tuples
  /// (k, 0, ..., 0) for partial index k — executors pass them through
  /// the same StatementExecutor callback, and reduction-aware runners
  /// tell the two apart by tuple arity (see kernels/reduction_runner.hpp).
  std::vector<pb::Tuple> iterations;
  TaskDep out;
  std::vector<TaskDep> in;
  TaskKind kind = TaskKind::Block;
};

/// Every in-dependency of a program resolved to its producing task:
/// task i's producers are producers[offsets[i] .. offsets[i + 1]), in
/// the order of its `in` list. The CSR form opt::SlotTable, the
/// optimizer passes, validation and the exports share.
struct ResolvedDependencies {
  std::vector<std::uint32_t> producers;
  std::vector<std::uint32_t> offsets; // tasks + 1 entries
};

/// Cheap census of a task program, used by the exports and benchmark
/// reports to show pre/post-optimization graph shrinkage.
struct ProgramCounts {
  std::size_t tasks = 0;
  std::size_t inEdges = 0;
};

/// Lifetime: consumers that defer execution (the tasking executor's launch
/// records, tasking::CompiledPipeline) hold raw `const Task*` pointers into
/// `tasks`. The vector is stable once lowering returns — nothing appends to
/// a finished program — but the TaskProgram object itself must outlive any
/// such consumer. executeTaskProgram only needs it alive for the duration
/// of the call; CompiledPipeline takes shared ownership instead so replay
/// handles can outlive the caller's scope (see tasking/replay_executor.hpp).
struct TaskProgram {
  std::vector<Task> tasks; // creation order: statement order, blocks lex
  std::size_t numStatements = 0;
  /// writeNum of §5.5: number of statements that are sources of others.
  std::size_t writeNum = 0;
  /// True when every statement uses the paper's strict same-nest block
  /// chain (Fig. 8 funcCount); false when the §7 relaxation replaced the
  /// chain with exact self-dependence edges.
  bool chainOrdering = true;
  /// For each statement, the distinct OTHER statements that read its
  /// output (from the Q_S data-flow requirements; sorted, self excluded).
  /// Recorded at lowering because streaming replay needs direct
  /// readership to bound cross-batch skew, and transitive reduction
  /// legitimately drops the block edges it could otherwise be read off
  /// of (a reader whose edges are all implied by a longer path keeps no
  /// direct edge). Empty for hand-assembled programs; consumers then
  /// fall back to statement-level reachability over the surviving edges,
  /// which reduction preserves.
  std::vector<std::vector<std::size_t>> stmtReaders;

  /// Index of the task with the given out-dependency; tasks are unique per
  /// (idx, tag). Linear scan — for bulk resolution use
  /// resolveDependencies() instead.
  std::optional<std::size_t> taskWithOut(const TaskDep& dep) const;

  /// Resolves every in-dependency to its producing task's position in
  /// `tasks`. O(tasks + edges) expected through one flat hash table.
  /// Throws when two tasks share an out tag or an in-dependency names no
  /// task or a later one (creation order).
  ResolvedDependencies resolveDependencies() const;

  /// Task and in-edge counts (for shrinkage reporting).
  ProgramCounts counts() const;

  /// Checks the program is well formed: every in-dependency names the out
  /// tag of an *earlier* task (OpenMP depend semantics), iterations
  /// partition domains, etc. Throws on violation.
  void validate(const scop::Scop& scop) const;

  std::string toString() const;
};

/// Statement-level readership for streaming executors: stmtReaders when
/// the program records it (exact direct readership), otherwise the
/// transitive closure of the statement-level projection of the surviving
/// in-dependencies — an over-approximation that reduction preserves.
/// Entry s lists the statements (self excluded, ascending) whose batch b
/// must complete before statement s may overwrite its arrays in batch
/// b+1.
std::vector<std::vector<std::size_t>>
statementReadership(const TaskProgram& program);

/// The channel route's stage structure, shared by the channel engine, the
/// channel simulator and the optimizer's placement score. Statements that
/// own tasks map to consecutive stages in ascending statement order. A
/// statement is one stage, except a *source* statement: a relaxed
/// reduction whose Block tasks (at least 2) have no in-dependency, i.e.
/// the independent partials of an accumulation over an input array. Its
/// Block tasks are dealt round-robin, in creation order, onto
/// min(blocks, workers) lane stages, and its combine runs at the end of
/// the first lane; since the combine depends on every partial, no lane
/// gets more than a batch ahead of the others. Tasks keep creation order
/// within their stage; every cross-stage dependency, lane to lane
/// included, becomes a channel.
struct StageLayout {
  std::vector<std::size_t> stageOf;    // per statement, its first stage;
                                       // SIZE_MAX if it owns no task
  std::vector<std::size_t> lanesOf;    // per statement, its stage count
  std::vector<std::size_t> stmtOf;     // per stage, the statement
  std::vector<std::size_t> stageTasks; // per stage, task count
  /// Per task: (stage, stage-local position).
  std::vector<std::pair<std::size_t, std::size_t>> place;
};
/// The channel route's worker count for a requested one: `requested`, or
/// hardware concurrency (at least 1) for 0. The one place that default is
/// resolved; ChannelPipeline and the placement-free channel simulator
/// both size their lanes by it.
unsigned channelWorkers(unsigned requested);
/// `workers` (nonzero, see channelWorkers) sizes the lanes.
StageLayout stageLayout(const TaskProgram& program, unsigned workers);

/// The paper's vector-to-integer linearisation. Every coordinate must be
/// in [0, kLinearStride).
inline constexpr std::int64_t kLinearStride = std::int64_t(1) << 20;
std::int64_t linearizeBlockVector(const pb::Tuple& blockRep);

/// The depend-clause slot of a statement's combine task. Offset by
/// numStatements so combine tags can never collide with the statement's
/// block tags (which use idx == stmtIdx).
TaskDep combineDep(std::size_t numStatements, std::size_t stmtIdx);

/// Lowers the AST to the task program.
TaskProgram lowerToTasks(const scop::Scop& scop, const ast::Ast& ast);

/// Convenience: full front-to-back pipeline compilation
/// (detect -> schedule -> AST -> tasks). Options forward to Algorithm 1
/// (block integration mode, task granularity).
TaskProgram compilePipeline(const scop::Scop& scop,
                            const pipeline::DetectOptions& options = {});

} // namespace pipoly::codegen
