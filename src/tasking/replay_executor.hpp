#pragma once

// The persistent replay executor: compile once, stream many batches.
//
// executeTaskProgram() re-resolves the whole dependency graph on every
// call — per run it hashes every (idx, tag) pair (or walks the slot
// table), copies every task's input record, allocates pool nodes and
// registers dependent edges. For a compiler that executes a program
// once that is fine; for server/streaming workloads that run the same
// compiled pipeline over thousands of data batches the compile cost is
// paid per batch (the ROADMAP's "Persistent pipeline executor" item).
//
// CompiledPipeline freezes a TaskProgram into a reusable artifact:
//   * construction resolves every in-dependency to its producing task
//     exactly once (reusing a prebuilt opt::SlotTable when given one)
//     and builds an rt::ReplayGraph — a frozen successor-list graph with
//     per-task ready-count templates;
//   * replay(exec) re-executes the program on a persistent worker pool
//     by resetting the atomic ready counters — no createTask calls, no
//     dependency hashing, no input-buffer copies, no thread spawns;
//   * a linear chain of tasks (the common shape after chain fusion, and
//     the only shape with no parallelism at all) skips the dependency
//     machinery entirely: replay degenerates to an in-order loop on the
//     calling thread;
//   * replayBatches(n, exec) streams n batches through the pipeline
//     Pipeflow-style — stage s of batch b+1 may start once stage s of
//     batch b finished (plus the write-after-read anti constraint
//     against s's direct consumers; see rt::ReplayGraph) — so the fill/
//     drain overlap of Fig. 10 happens *across* batches too.
//
// Backends the pool cannot replace (OpenMP) run a program through the
// slot-table executeTaskProgram overload with a table built once.
//
// Ownership: the pipeline holds the TaskProgram by shared_ptr. Worker
// threads execute raw `const codegen::Task*` pointers into it, so the
// program must outlive every replay — shared ownership makes that hold
// even after the caller dropped its own reference.
//
// Thread safety: distinct CompiledPipelines are independent; calls on
// one instance must not overlap (checked — overlapping replays would
// share one set of ready counters).

#include "opt/optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "tasking/executor.hpp"

#include <atomic>
#include <cstdint>
#include <memory>

namespace pipoly::tasking {

/// Executes one dynamic statement instance of one batch of a stream.
using BatchStatementExecutor = std::function<void(
    std::size_t batch, std::size_t stmtIdx, const pb::Tuple& iteration)>;

/// Construction-time knobs of CompiledPipeline. Defined at namespace
/// scope (not nested) so it is complete where the constructors default
/// it — a nested aggregate with default member initializers cannot be a
/// default argument inside its own enclosing class.
struct ReplayOptions {
  /// Worker threads of the persistent pool (0 = hardware concurrency).
  /// 1 executes replays in creation order on the calling thread.
  unsigned numThreads = 0;
};

class CompiledPipeline {
public:
  using Options = ReplayOptions;

  /// Shared ownership: the pipeline keeps `program` alive across every
  /// replay. Throws on a null program or a malformed dependency.
  explicit CompiledPipeline(
      std::shared_ptr<const codegen::TaskProgram> program,
      Options options = {});

  /// Same, reusing a prebuilt slot table (opt::buildSlotTable of this
  /// very program) instead of re-resolving producers through the hashed
  /// owner index. Throws when the table does not match the program.
  CompiledPipeline(std::shared_ptr<const codegen::TaskProgram> program,
                   const opt::SlotTable& slots, Options options = {});

  /// Convenience: takes ownership of the program by value.
  explicit CompiledPipeline(codegen::TaskProgram program,
                            Options options = {});

  const codegen::TaskProgram& program() const { return *program_; }
  std::size_t numTasks() const { return program_->tasks.size(); }
  unsigned numThreads() const { return numThreads_; }

  /// True when the task graph is one linear dependence chain in creation
  /// order — every task depends exactly on its predecessor. Such a
  /// program admits a single execution order, so replay() runs it
  /// in-order on the calling thread with zero scheduling overhead.
  bool linear() const { return linear_; }

  /// Approximate bytes kept allocated between replays: the frozen graph
  /// (ready counters + CSR adjacency + batch-group tables). Same
  /// diagnostic contract as TaskingLayer::retainedBytes().
  std::size_t retainedBytes() const;

  /// Re-executes the compiled program once. Blocks until every task
  /// finished; rethrows the first exception thrown by `exec`.
  void replay(const StatementExecutor& exec);

  /// Streams `numBatches` executions through the pipeline, overlapping
  /// consecutive batches under the constraints documented above. `exec`
  /// receives the batch index; with shared state it observes exactly the
  /// effect of `numBatches` back-to-back replay() calls.
  void replayBatches(std::size_t numBatches,
                     const BatchStatementExecutor& exec);

  struct Stats {
    std::uint64_t replays = 0;       // replay() calls
    std::uint64_t batches = 0;       // batches streamed via replayBatches
    std::uint64_t linearReplays = 0; // replays served by the linear path
  };
  const Stats& stats() const { return stats_; }

private:
  void compile(const opt::SlotTable* slots);
  void ensurePool();
  void runSerial(std::size_t numBatches, const BatchStatementExecutor& exec);

  class ReplayGuard;

  std::shared_ptr<const codegen::TaskProgram> program_;
  Options options_;
  unsigned numThreads_ = 1;
  bool linear_ = false;
  rt::ReplayGraph graph_;
  std::unique_ptr<rt::DependencyThreadPool> pool_; // lazily created
  std::atomic<bool> replaying_{false};
  Stats stats_;
};

} // namespace pipoly::tasking
