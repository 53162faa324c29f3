#pragma once

// A dependency-tracking thread pool: tasks are submitted with explicit
// predecessor task ids and become runnable once all predecessors have
// finished. This is the substrate of the thread-pool tasking backend —
// the "other tasking platform" the paper's §7 anticipates plugging in
// beneath its language-agnostic CreateTask layer.
//
// Since the work-stealing rewrite the scheduler is lock-free on the hot
// path:
//
//   * Per-worker Chase–Lev deques (work_steal_deque.hpp). A task made
//     runnable by a worker goes to that worker's own deque bottom
//     (LIFO, cache-warm); idle workers steal from the top of victims'
//     deques in randomized sweep order, so the oldest — typically
//     largest — subgraphs migrate first.
//   * Tasks submitted from outside the pool land in per-worker-indexed
//     injection shards (small mutexed queues, sharded by task id), which
//     workers drain alongside their deques.
//   * Task nodes and dependency edges live in chunked slabs
//     (chunked_slab.hpp): submit() is an atomic id reservation plus
//     per-predecessor CAS registration — no global lock, no per-task
//     unique_ptr churn. A node holds a plain function pointer and a
//     fixed inline copy of its input (kInlinePayload bytes), so
//     submitting a payload task allocates nothing once the slabs are
//     warm; recycle() rewinds the slabs between independent task
//     graphs so a long-lived pool reuses the same chunks.
//   * Each node carries an atomic countdown of unfinished predecessors
//     plus a +1 submission guard; finish() seals the node's dependent
//     list with a sentinel exchange, so a racing late registration
//     either enqueues onto the live list or observes "already done" —
//     never both, never blocked.
//   * Idle workers park on an event count (event_count.hpp): producers
//     pay one atomic load when nobody sleeps, instead of the old
//     broadcast over every worker on every finished task.
//
// Contracts:
//   * submit() is thread-safe against itself and against workers; in
//     particular a task body may submit follow-up tasks (nested blocks
//     in the pipeline blocking maps need this). A dependency must be an
//     id obtained from a submit() that happened-before this one —
//     anything else (self, forward, out-of-range ids) throws
//     pipoly::Error and leaves the pool usable.
//   * waitAll() returns when every task whose submission happened-before
//     the call (including tasks those tasks spawned) has finished. It
//     rethrows the first exception recorded from a task body and resets
//     it; the pool stays usable. A failed task's dependents still run —
//     errors are reported, never used to cancel the graph.
//   * Task ids are valid until the next recycle(). recycle() requires
//     a quiescent pool (nothing pending, no runGraph active) and throws
//     pipoly::Error otherwise; afterwards ids restart at 0.
//   * The destructor drains outstanding work but swallows unreported
//     task errors (destructors must not throw).

#include "runtime/chunked_slab.hpp"
#include "runtime/event_count.hpp"
#include "runtime/work_steal_deque.hpp"
#include "support/rng.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace pipoly::rt {

/// Parses a PIPOLY_POOL_WAKE_CAP-style override. Accepts only a plain
/// positive decimal integer (optional leading/trailing whitespace) that
/// fits an unsigned; anything else — null, empty, garbage, trailing
/// junk, zero, negative, out of range — yields nullopt and the caller's
/// default stands.
std::optional<unsigned> parseWakeCap(const char* text);

/// A dependency graph frozen for repeated execution. Built once (addNode
/// with predecessor ids, then freeze()), it can be run any number of
/// times through DependencyThreadPool::runGraph: each run only resets the
/// per-node atomic ready counters — no node allocation, no dependency
/// registration, no closure churn. This is the pool-level substrate of
/// the tasking::CompiledPipeline replay executor.
///
/// Streaming runs (numBatches > 1) pipeline consecutive batches
/// Pipeflow-style. Batch b+1 of node n may start once
///   * n's in-batch predecessors finished batch b+1,
///   * n itself finished batch b (the write-after-write self edge),
///   * n's direct in-batch successors finished batch b (the
///     write-after-read anti edge: n's next batch overwrites data its
///     consumers may still be reading), and
///   * every member of n's batch group — if one was declared via
///     addBatchGroup — finished batch b. Groups close the hazard the
///     edge set alone cannot see: when a node reads data that a LATER
///     node of the same stage writes (forward self-neighbourhoods like
///     A[i+1][j+1]), the value crosses the batch boundary backwards, and
///     no RAW edge exists to order the reader's batch b+1 after the
///     writer's batch b. Grouping a stage's nodes keeps the stage
///     batch-serial (it cannot lap itself), exactly matching the channel
///     backend's in-order stage semantics.
///   * every member of every group with a declared anti edge INTO n's
///     group (addGroupAntiEdge) finished batch b. This is the
///     cross-stage write-after-read constraint at stage granularity: a
///     writer stage may overwrite its arrays for batch b+1 only after
///     every stage that reads them is done with batch b. The per-node
///     anti edges (third bullet) cover only DIRECT graph consumers —
///     after transitive reduction a reader whose block edges were all
///     implied by a longer path has no direct edge left, so the writer
///     would lap it. Group anti edges carry the readership relation
///     independently of which block edges survived optimization.
/// The anti edges bound the batch skew between adjacent stages to one,
/// which is exactly what makes the two-slot (batch-parity) counter
/// scheme race-free: a node's counter slot for batch b+2 is re-armed
/// when batch b fires, and every possible decrement of that slot
/// happens-after batch b finished (see runGraph's implementation notes).
/// Group counters follow the same parity discipline: the finisher that
/// drops a group's batch-b count to zero re-arms the slot for batch b+2
/// before releasing batch b+1, and every batch-b+2 decrement
/// happens-after that release.
class ReplayGraph {
public:
  using NodeId = std::uint32_t;
  /// The node body: invoked as body(context, node, batch). The context is
  /// the pointer passed to runGraph, so one frozen graph can execute
  /// different payloads across runs.
  using Body = void (*)(void* context, NodeId node, std::size_t batch);

  /// Group id returned by addBatchGroup for an empty member list; valid
  /// ids are dense and start at 0.
  static constexpr std::uint32_t kNoGroup = UINT32_MAX;

  /// Adds a node depending on the given earlier nodes (every id must come
  /// from a previous addNode — creation order is the topological order).
  /// Must be called before freeze().
  NodeId addNode(std::span<const NodeId> deps);

  /// Declares a batch group and returns its id: in streaming runs, batch
  /// b+1 of any member may start only after every member finished batch b
  /// (the stage is batch-serial — see the class comment for why edges
  /// alone cannot express this). Nodes must already exist and each node
  /// may belong to at most one group. Singleton groups are kept — their
  /// batch-serial constraint is redundant with the self edge, but they
  /// still anchor addGroupAntiEdge constraints. An empty member list
  /// returns kNoGroup. Must be called before freeze().
  std::uint32_t addBatchGroup(std::span<const NodeId> members);

  /// Declares a cross-group anti edge: in streaming runs, batch b+1 of
  /// any member of `writerGroup` may start only after every member of
  /// `readerGroup` finished batch b (see the class comment's fifth
  /// bullet). Self edges are ignored (the batch group itself already
  /// serialises a stage); duplicates are deduplicated by freeze(). Must
  /// be called before freeze().
  void addGroupAntiEdge(std::uint32_t readerGroup, std::uint32_t writerGroup);

  /// Seals the graph: builds the flat successor/predecessor lists, the
  /// ready-count templates and the counter storage. Required before the
  /// first runGraph; addNode afterwards throws.
  void freeze();

  bool frozen() const { return frozen_; }
  std::size_t size() const { return predOffsets_.size() - 1; }
  std::size_t numEdges() const { return preds_.size(); }
  std::size_t numGroups() const {
    return groupOffsets_.empty() ? 0 : groupOffsets_.size() - 1;
  }

  /// The predecessor lists in CSR form, as addNode appends them: node v's
  /// predecessors are predecessors()[predOffsets()[v] .. predOffsets()[v +
  /// 1]), in the order addNode received them.
  std::span<const NodeId> predecessors() const { return preds_; }
  std::span<const std::uint32_t> predOffsets() const { return predOffsets_; }

  /// Heap footprint of the frozen structures: ready counters, CSR
  /// adjacency, and batch-group tables (for retainedBytes accounting).
  std::size_t storageBytes() const;

private:
  friend class DependencyThreadPool;

  /// Two ready counters per node (batch parity), cacheline-separated so
  /// token traffic for different nodes never false-shares.
  struct alignas(64) Counters {
    std::atomic<std::uint32_t> slot[2];
  };

  // Build-time state (cleared by freeze()).
  std::vector<std::vector<NodeId>> buildGroups_;
  // Per reader group: the writer groups its completion releases.
  std::vector<std::vector<std::uint32_t>> buildGroupEdges_;

  // CSR adjacency (predecessors appended by addNode, successors built by
  // freeze) + ready-count templates.
  std::vector<NodeId> preds_, succs_;
  std::vector<std::uint32_t> predOffsets_{0}, succOffsets_;
  std::vector<std::uint32_t> indegFirst_;  // batch 0: in-batch preds only
  std::vector<std::uint32_t> indegSteady_; // batch >= 1: preds+succs+self+group
  std::vector<NodeId> roots_;              // indegFirst == 0
  std::unique_ptr<Counters[]> counters_;
  // Batch groups: CSR member lists, per-node membership, and one parity
  // counter pair per group counting that batch's unfinished members.
  std::vector<NodeId> groupMembers_;
  std::vector<std::uint32_t> groupOffsets_;
  std::vector<std::uint32_t> groupOf_;
  std::unique_ptr<Counters[]> groupCounters_;
  // Cross-group anti edges, CSR keyed by reader group: completing batch b
  // hands every member of each target (writer) group a batch-b+1 token.
  std::vector<std::uint32_t> groupEdgeTargets_;
  std::vector<std::uint32_t> groupEdgeOffsets_;
  bool frozen_ = false;
};

class DependencyThreadPool {
public:
  using TaskId = std::size_t;
  /// A task body: invoked with a pointer to the task's own copy of the
  /// payload passed to submit().
  using TaskFunction = void (*)(void* payload);

  /// Payload bytes a node stores inline (max_align_t-aligned).
  static constexpr std::size_t kInlinePayload = 32;

  /// Spawns `numThreads` workers (at least 1).
  explicit DependencyThreadPool(unsigned numThreads);
  ~DependencyThreadPool();

  DependencyThreadPool(const DependencyThreadPool&) = delete;
  DependencyThreadPool& operator=(const DependencyThreadPool&) = delete;

  /// Submits `fn(copy)` as a task that may start only after all `deps`
  /// have finished, where `copy` points to a copy of the `size` payload
  /// bytes taken before submit() returns (size <= kInlinePayload; the
  /// payload may be null when size is 0). Dependencies must be ids
  /// returned by submit() calls that happened-before this one and after
  /// the last recycle(); violations throw pipoly::Error. Thread-safe: may
  /// be called concurrently from any thread, including from inside
  /// running task bodies.
  TaskId submit(TaskFunction fn, const void* payload, std::size_t size,
                std::span<const TaskId> deps);

  /// Closure form of submit(): the closure is moved to the heap and
  /// destroyed right after it ran, so captured state does not outlive
  /// the task.
  TaskId submit(std::function<void()> fn, std::span<const TaskId> deps);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception thrown by a task body, if any.
  void waitAll();

  /// Rewinds the node and edge slabs so the next submit() gets id 0,
  /// keeping their chunks (up to twice this cycle's high-water mark) for
  /// reuse. Every id handed out so far becomes invalid. Throws
  /// pipoly::Error unless the pool is quiescent: no task pending (call
  /// waitAll() first) and no runGraph() in progress.
  void recycle();

  /// Heap bytes held by the node and edge slabs.
  std::size_t retainedBytes() const {
    return nodes_.retainedBytes() + edges_.retainedBytes();
  }

  /// Executes a frozen ReplayGraph `numBatches` times on the pool's
  /// workers and blocks until every (node, batch) execution finished.
  /// Per run the cost is one relaxed counter store per node plus the
  /// token traffic along the edges — no submit(), no node allocation, no
  /// dependent registration. Batches are pipelined under the constraints
  /// documented on ReplayGraph. The first exception thrown by a body is
  /// rethrown after the run drains (mirroring waitAll: a failed node's
  /// dependents still execute).
  ///
  /// Contract: one graph run at a time per pool, never from inside a
  /// task body, and no interleaved submit() traffic during the run.
  void runGraph(ReplayGraph& graph, std::size_t numBatches,
                ReplayGraph::Body body, void* context);

  unsigned numThreads() const { return static_cast<unsigned>(workers_.size()); }

private:
  struct DepEdge {
    TaskId dependent = 0;
    DepEdge* next = nullptr;
  };

  struct alignas(64) Node {
    TaskFunction fn = nullptr;
    alignas(std::max_align_t) std::byte payload[kInlinePayload];
    // Unfinished predecessors + 1 submission guard; the task is
    // runnable when this hits 0.
    std::atomic<std::size_t> remaining{0};
    // Intrusive list of registered dependents; sealedTag() once the
    // task has finished. Reset by submit(), since recycled nodes keep the
    // previous cycle's sealed tag.
    std::atomic<DepEdge*> dependents{nullptr};
  };

  struct Worker {
    explicit Worker(std::uint64_t seed) : rng(seed) {}
    WorkStealDeque<TaskId> deque;
    SplitMix64 rng; // victim-selection randomness, owner-thread only
    // Cumulative successful steals, owner-thread only; sampled into the
    // "pool.steals" trace counter when a trace session is active.
    std::uint64_t steals = 0;
  };

  struct InjectionShard {
    std::mutex mutex;
    std::deque<TaskId> queue;
    // queue.size(), republished after every mutation; lets sweepers skip
    // empty shards without taking the lock (seq_cst on both sides so the
    // parking recheck cannot miss a push — see shouldWake()).
    std::atomic<std::size_t> count{0};
  };

  /// Graph executions travel through the same deques/injection shards as
  /// ordinary tasks, distinguished by the top TaskId bit; the remaining
  /// bits encode (batch, node). Ordinary slab ids never reach the flag.
  static constexpr TaskId kGraphFlag = TaskId(1) << 63;
  static constexpr std::size_t kMaxGraphBatches = std::size_t(1) << 30;

  static TaskId encodeGraphTask(ReplayGraph::NodeId node, std::size_t batch) {
    return kGraphFlag | (static_cast<TaskId>(batch) << 32) | node;
  }

  static DepEdge* sealedTag();
  bool shouldWake(std::size_t searchingAllowance = 0) const;
  bool registerDependent(Node& pred, DepEdge& edge);
  void makeReady(TaskId id);
  void runTask(TaskId id);
  void finishTask(TaskId id);
  void runGraphTask(TaskId id);
  void sendGraphToken(ReplayGraph& graph, ReplayGraph::NodeId node,
                      std::size_t batch);
  bool tryFindWork(unsigned self, TaskId& out);
  bool tryDrainInjection(unsigned self, std::size_t shard, TaskId& out);
  void workerLoop(unsigned index);

  ChunkedSlab<Node> nodes_;
  ChunkedSlab<DepEdge> edges_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<InjectionShard>> injection_;

  std::atomic<std::size_t> pending_{0}; // submitted but not finished
  // Workers currently sweeping for work. Producers skip the wakeup when
  // a sweep is in flight: the sweeper's post-announcement recheck (see
  // workerLoop) is guaranteed to observe freshly published work, so the
  // gate only suppresses redundant futex traffic, never progress.
  std::atomic<std::size_t> searching_{0};
  // Wake throttle: producers stop waking sleepers once this many workers
  // are already awake. Defaults to hardware_concurrency (workers beyond
  // the core count only add context-switch pressure); override with the
  // PIPOLY_POOL_WAKE_CAP environment variable (clamped to numThreads).
  // Assumes task bodies run to completion without blocking on anything
  // other than their declared dependencies — waiting between tasks must
  // go through deps, which the contract already requires.
  unsigned wakeCap_ = 1;
  std::mutex doneMutex_; // waitAll() parking, cold
  std::condition_variable doneCv_;

  // Active runGraph() state. Written by the (single) runGraph caller
  // before the roots are published and read by workers only while they
  // hold a graph-flagged task, so the publication happens-before every
  // read (injection-shard mutex / deque seq_cst handoff).
  ReplayGraph* graph_ = nullptr;
  ReplayGraph::Body graphBody_ = nullptr;
  void* graphContext_ = nullptr;
  std::size_t graphBatches_ = 0;
  std::atomic<std::size_t> graphRemaining_{0};

  std::mutex errorMutex_;
  std::exception_ptr firstError_; // guarded by errorMutex_

  EventCount idle_;
  std::atomic<bool> shutdown_{false};
  std::vector<std::jthread> threads_;
};

} // namespace pipoly::rt
