#pragma once

// §5.4 — code generation. The bodies of the pipeline loops are extracted
// into tasks; dependency vectors become integer tags (each dimension is
// multiplied by a large stride and summed — the paper's linearisation) and
// are paired with a statement index to distinguish the pw_multi_affs.
//
// The result, TaskProgram, is the backend-agnostic task-parallel program:
// a creation-ordered list of tasks, each with
//   * its statement and block identity,
//   * the block's member iterations (what the extracted function executes):
//     a [begin, end) range of its statement's sorted domain rows,
//   * one out-dependency (idx, tag),
//   * in-dependencies (idx, tag) from the Q_S maps, plus the same-nest
//     ordering dependency (the funcCount protocol of Fig. 8) expressed as
//     an in-dependency on the previous block of the same statement.
//
// Every dependency also names its producing task by id: lowering knows
// each eq.-4 source block, so it writes the id once, and every later
// layer (optimizer, slot table, executors, simulator, exports) reads it.
// The (idx, tag) pair is only the CreateTask / depend-clause encoding.

#include "ast/ast.hpp"
#include "pipeline/detect.hpp"
#include "presburger/set.hpp"
#include "presburger/tuple.hpp"
#include "scop/scop.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pipoly::codegen {

/// No producer recorded (TaskDep::producer of a hand-built dependency).
inline constexpr std::uint32_t kNoProducer = UINT32_MAX;

/// (statement slot, linearised block vector) — the depend-clause key —
/// and the id of the task that publishes it.
struct TaskDep {
  int idx;
  std::int64_t tag;
  /// True for the same-statement ordering dependency (funcCount protocol).
  bool selfOrdering = false;
  /// The task whose `out` is (idx, tag): the task itself for an `out`,
  /// an earlier task for an in-dependency.
  std::uint32_t producer = kNoProducer;

  friend bool operator==(const TaskDep&, const TaskDep&) = default;
};

/// What a task executes. Block tasks run statement iterations; a
/// ReductionCombine task folds the partial accumulators of a relaxed
/// reduction statement back into its array (one fold call per partial,
/// in deterministic block order).
enum class TaskKind : unsigned char { Block, ReductionCombine };

/// A task's iterations: the rows [rowBegin, rowEnd) of one of its
/// program's immutable row tables (TaskProgram::rowTables), walked as
/// TupleViews. A plain view: copying one allocates nothing and touches no
/// reference count; the program's tables keep the rows alive.
class IterationRange {
public:
  class iterator {
  public:
    iterator(const pb::Value* rows, std::uint32_t arity, std::uint32_t row)
        : rows_(rows), arity_(arity), row_(row) {}
    pb::TupleView operator*() const {
      return pb::TupleView(rows_ + std::size_t(row_) * arity_, arity_);
    }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

  private:
    const pb::Value* rows_;
    std::uint32_t arity_;
    std::uint32_t row_;
  };

  IterationRange() = default;
  /// Rows [rowBegin, rowEnd) of `table`, which must outlive the range.
  IterationRange(const pb::IntTupleSet& table, std::size_t rowBegin,
                 std::size_t rowEnd);

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  std::size_t arity() const { return arity_; }
  std::uint32_t rowBegin() const { return begin_; }
  std::uint32_t rowEnd() const { return end_; }
  /// The first row of the table the range points into.
  const pb::Value* table() const { return rows_; }

  pb::TupleView operator[](std::size_t k) const {
    return pb::TupleView(rows_ + (begin_ + k) * arity_, arity_);
  }
  pb::TupleView back() const { return (*this)[size() - 1]; }
  iterator begin() const { return iterator(rows_, arity_, begin_); }
  iterator end() const { return iterator(rows_, arity_, end_); }

  /// True when `next` continues this range in the same table.
  bool adjoins(const IterationRange& next) const {
    return rows_ == next.rows_ && arity_ == next.arity_ && end_ == next.begin_;
  }
  /// Extends this range over an adjoining `next`.
  void extend(const IterationRange& next);

private:
  const pb::Value* rows_ = nullptr;
  std::uint32_t arity_ = 0;
  std::uint32_t begin_ = 0;
  std::uint32_t end_ = 0;
};

struct Task {
  std::size_t id; // creation order, 0-based
  std::size_t stmtIdx;
  pb::Tuple blockRep;
  /// For Block tasks: the block's member iterations, a range of the
  /// statement's domain rows (arity = statement depth, lexicographic
  /// order). For ReductionCombine tasks: one fold step per partial block,
  /// rows (k, 0, ..., 0) of arity depth+1 for partial index k, from the
  /// program's fold table — executors pass them through the same
  /// StatementExecutor callback, and reduction-aware runners tell the two
  /// apart by tuple arity (see kernels/reduction_runner.hpp).
  IterationRange iterations;
  TaskDep out;
  std::vector<TaskDep> in;
  TaskKind kind = TaskKind::Block;
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
  /// The immutable row tables the tasks' iteration ranges point into.
  /// Lowering puts statement s's sorted domain at index s (sharing the
  /// SCoP's buffer) and one (k, 0, ..., 0) fold table per fold arity
  /// after them. Copies of the program share the tables, so the ranges
  /// stay valid for as long as any copy lives.
  std::vector<pb::IntTupleSet> rowTables;
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

  /// Task and in-edge counts (for shrinkage reporting).
  ProgramCounts counts() const;

  /// Checks the program is well formed: every task's out names the task
  /// itself, out tags increase in creation order within each idx (so
  /// they are unique), every in-dependency's producer is an *earlier*
  /// task whose out tag it carries (OpenMP depend semantics), each
  /// statement's Block tasks tile its domain rows [0, |D_S|) in creation
  /// order, a combine folds one partial per block, etc. O(tasks + edges).
  /// Throws on violation.
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

/// The channel route's stage structure, shared by the channel engine and
/// the channel simulator. Statements that own tasks map to consecutive
/// stages in ascending statement order. A statement is one stage, except
/// a *source* statement: a relaxed reduction whose Block tasks (at least
/// 2) have no in-dependency, i.e. the independent partials of an
/// accumulation over an input array. Its Block tasks are dealt
/// round-robin, in creation order, onto
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
std::int64_t linearizeBlockVector(pb::TupleView blockRep);
inline std::int64_t linearizeBlockVector(const pb::Tuple& blockRep) {
  return linearizeBlockVector(pb::TupleView(blockRep));
}

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
