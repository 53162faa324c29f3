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
//   * with the default options (numThreads = 0) the pipeline measures
//     whether the pool pays before using it, so that every call after
//     the first is never slower than one thread by more than noise
//     (§4.4's time(pipeline) <= time(sequential)). The first call pays
//     for the measurement: besides its batches it prices the graph,
//     starts the pool and runs the graph twice with empty bodies —
//     several times one in-order batch on fine programs whose chains
//     cross workers. The gain therefore needs repeated calls on one
//     CompiledPipeline. The first call runs one
//     batch in order on the calling thread — real work with real
//     results — and times every task. It then times one empty-body run
//     of the frozen graph on the pool (the orchestration cost of this
//     graph on this host) and prices the pool as that orchestration
//     plus sim::simulate's makespan for the measured per-statement
//     costs (priceReplay). Every later call runs in order unless the
//     predicted pool time beats in-order by kPoolMargin
//     (chooseReplayRoute). When no batch count could make the pool pay,
//     the pool is released. Construction measures nothing, and neither
//     do calls whose route is known: a linear chain's replay() and a
//     one-CPU host run in order. The choice is traced (a
//     `replay.calibrate` span, then a `replay.route.pool` or
//     `replay.route.in_order` instant with the predictions as
//     `replay.route.*` counters) and kept in stats();
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
#include <vector>

namespace pipoly::tasking {

/// Executes one dynamic statement instance of one batch of a stream.
using BatchStatementExecutor = std::function<void(
    std::size_t batch, std::size_t stmtIdx, const pb::Tuple& iteration)>;

/// Construction-time knobs of CompiledPipeline. Defined at namespace
/// scope (not nested) so it is complete where the constructors default
/// it — a nested aggregate with default member initializers cannot be a
/// default argument inside its own enclosing class.
struct ReplayOptions {
  /// 0 (the default) = calibrated choice: the first call runs in order
  /// and measures, and later calls use a pool of hardware-concurrency
  /// workers only where it is predicted to beat the in-order loop (see
  /// the header comment). N >= 2 = always a persistent pool of N
  /// workers, never calibrated. 1 executes replays in creation order on
  /// the calling thread.
  unsigned numThreads = 0;
};

/// The two executors a CompiledPipeline chooses between.
enum class ReplayRoute : std::uint8_t {
  InOrder, // creation order on the calling thread
  Pool,    // the frozen graph on the persistent pool
};

/// Why a call took its route.
enum class RouteReason : std::uint8_t {
  None,        // no call yet
  LinearChain, // replay() of a linear chain: in order
  OneWorker,   // numThreads 1, or a one-CPU host: in order
  FewTasks,    // replay() of at most one task, or an empty program
  Explicit,    // explicit numThreads >= 2: always the pool
  Calibrated,  // the calibrated choice (Stats::choice)
};

/// A route choice needs a margin: the pool is chosen only when its
/// predicted time is below kPoolMargin x the in-order time, so a near
/// tie (and the noise of one calibration batch) stays on the cheaper,
/// simpler executor.
inline constexpr double kPoolMargin = 0.9;

/// What the route choice knows about one program on one host. All times
/// are seconds of one batch.
struct ReplayPrice {
  unsigned workers = 0;        // pool size priced (0 = not calibrated)
  double inOrder = 0.0;        // W: every task in creation order
  double makespan = 0.0;       // M: sim::simulate on `workers`, bodies only
  double batchBound = 0.0;     // B: least time a streamed batch can add
  double orchestration = 0.0;  // t0: one empty-body batch on the pool
                               // (0 when compute alone cannot pay)
};

/// A route and the two predictions it was chosen by, for `batches`
/// batches.
struct ReplayChoice {
  ReplayRoute route = ReplayRoute::InOrder;
  std::size_t batches = 0;
  double inOrder = 0.0; // predicted in-order seconds: batches x W
  double pool = 0.0;    // predicted pool seconds (chooseReplayRoute)
};

/// Prices a program from measured per-iteration statement costs
/// (seconds, indexed by statement) on `workers` pool workers:
///   W = the cost sum, M = sim::simulate's makespan (no task overhead —
///   the pool's orchestration is measured, not modelled), and
///   B = max(W / workers, the costliest chain of one statement's blocks).
/// B bounds a stream from below: every statement is batch-serial (a
/// statement starts batch b+1 only after all of its blocks finished
/// batch b), so a batch adds at least the longest in-statement chain —
/// the statement's whole work when its blocks form one chain — and at
/// least W / workers. `orchestration` is left 0 for the caller to fill.
ReplayPrice priceReplay(const codegen::TaskProgram& program,
                        const opt::SlotTable& slots,
                        const std::vector<double>& iterationCost,
                        unsigned workers);

/// The route for `batches` batches (>= 1). The model:
///   in-order(n) = n W
///   pool(n)     = n t0 + M + (n - 1) B
/// The pool pays the measured orchestration per batch; the first batch
/// fills and drains the pipeline (M), every further batch adds the
/// stream bound B. So pool(1) = t0 + M, and pool(n) lies between
/// n (t0 + B) and n x pool(1). Chooses the pool iff
/// pool(n) < kPoolMargin x in-order(n).
ReplayChoice chooseReplayRoute(const ReplayPrice& price, std::size_t batches);

/// True when some batch count would choose the pool: t0 + B, the
/// per-batch limit of pool(n) / n, beats kPoolMargin x W. With t0 = 0
/// this is the compute-only test that decides whether orchestration is
/// worth measuring at all.
bool poolCanPay(const ReplayPrice& price);

class CompiledPipeline {
public:
  using Options = ReplayOptions;

  /// Shared ownership: the pipeline keeps `program` alive across every
  /// replay. Throws on a null program or a malformed dependency.
  explicit CompiledPipeline(
      std::shared_ptr<const codegen::TaskProgram> program,
      Options options = {});

  /// Same, reusing a prebuilt slot table (opt::buildSlotTable of this
  /// very program) instead of copying the producer ids out again.
  /// Throws when the table does not match the program.
  CompiledPipeline(std::shared_ptr<const codegen::TaskProgram> program,
                   const opt::SlotTable& slots, Options options = {});

  /// Convenience: takes ownership of the program by value.
  explicit CompiledPipeline(codegen::TaskProgram program,
                            Options options = {});

  const codegen::TaskProgram& program() const { return *program_; }
  std::size_t numTasks() const { return program_->tasks.size(); }
  /// Pool workers: options.numThreads, or hardware concurrency for the
  /// calibrated default (which may still run in order).
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
    std::uint64_t calibrations = 0;  // completed calibrations (0 or 1)
    double calibrationSeconds = 0.0; // wall time of the calibration
    ReplayPrice price;               // what the calibration measured
    ReplayChoice choice;             // the latest calibrated choice
    /// The route the latest call took, and why. The calibration call
    /// ran its batch 0 in order and its other batches on `route`.
    ReplayRoute route = ReplayRoute::InOrder;
    RouteReason reason = RouteReason::None;
  };
  const Stats& stats() const { return stats_; }

private:
  void compile(const opt::SlotTable* slots);
  void took(ReplayRoute route, RouteReason reason) {
    stats_.route = route;
    stats_.reason = reason;
  }
  void ensurePool();
  void runSerial(std::size_t firstBatch, std::size_t numBatches,
                 const BatchStatementExecutor& exec);
  /// The calibrated default: calibrates on the first call (its batch 0
  /// is the calibration batch), then runs the remaining batches on the
  /// route chosen for a call of `numBatches` batches.
  void runCalibrated(std::size_t numBatches,
                     const BatchStatementExecutor& exec);
  void calibrate(const BatchStatementExecutor& exec);
  /// The cached choice for `numBatches`; recomputed (and traced) only
  /// when the batch count differs from the previous call's.
  const ReplayChoice& choiceFor(std::size_t numBatches);

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
