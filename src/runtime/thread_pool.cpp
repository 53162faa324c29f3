#include "runtime/thread_pool.hpp"

#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace pipoly::rt {

namespace {

/// Identifies the worker the current thread belongs to, if any, so
/// makeReady() can push to the thread's own deque instead of the
/// injection shards. Set once per worker thread; a pool's threads are
/// joined before the pool dies, so a binding never outlives its pool.
struct TlsBinding {
  DependencyThreadPool* pool = nullptr;
  unsigned index = 0;
};
thread_local TlsBinding tlsBinding;

} // namespace

std::optional<unsigned> parseWakeCap(const char* text) {
  if (text == nullptr)
    return std::nullopt;
  while (std::isspace(static_cast<unsigned char>(*text)))
    ++text;
  // strtoul silently accepts a leading minus (wrapping the value), so
  // reject anything that does not start with a digit outright.
  if (!std::isdigit(static_cast<unsigned char>(*text)))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (errno == ERANGE || end == text)
    return std::nullopt;
  while (std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  if (*end != '\0') // trailing garbage ("4cores", "2 4", ...)
    return std::nullopt;
  if (v == 0 || v > UINT_MAX)
    return std::nullopt;
  return static_cast<unsigned>(v);
}

ReplayGraph::NodeId ReplayGraph::addNode(std::span<const NodeId> deps) {
  PIPOLY_CHECK_MSG(!frozen_, "ReplayGraph::addNode after freeze()");
  const std::size_t id = size();
  PIPOLY_CHECK_MSG(id < UINT32_MAX &&
                       preds_.size() + deps.size() < UINT32_MAX,
                   "ReplayGraph too large");
  for (NodeId dep : deps)
    PIPOLY_CHECK_MSG(dep < id,
                     "ReplayGraph dependency on a not-yet-added node");
  preds_.insert(preds_.end(), deps.begin(), deps.end());
  predOffsets_.push_back(static_cast<std::uint32_t>(preds_.size()));
  return static_cast<NodeId>(id);
}

std::uint32_t ReplayGraph::addBatchGroup(std::span<const NodeId> members) {
  PIPOLY_CHECK_MSG(!frozen_, "ReplayGraph::addBatchGroup after freeze()");
  if (members.empty())
    return kNoGroup;
  for (NodeId m : members)
    PIPOLY_CHECK_MSG(m < size(),
                     "ReplayGraph batch group names a not-yet-added node");
  buildGroups_.emplace_back(members.begin(), members.end());
  buildGroupEdges_.emplace_back();
  return static_cast<std::uint32_t>(buildGroups_.size() - 1);
}

void ReplayGraph::addGroupAntiEdge(std::uint32_t readerGroup,
                                   std::uint32_t writerGroup) {
  PIPOLY_CHECK_MSG(!frozen_, "ReplayGraph::addGroupAntiEdge after freeze()");
  PIPOLY_CHECK_MSG(readerGroup < buildGroups_.size() &&
                       writerGroup < buildGroups_.size(),
                   "ReplayGraph anti edge names an unknown group");
  if (readerGroup == writerGroup)
    return; // the group itself already serialises a stage's batches
  buildGroupEdges_[readerGroup].push_back(writerGroup);
}

void ReplayGraph::freeze() {
  PIPOLY_CHECK_MSG(!frozen_, "ReplayGraph::freeze called twice");
  const std::size_t n = size();
  preds_.shrink_to_fit();
  predOffsets_.shrink_to_fit();
  std::vector<std::uint32_t> succCount(n, 0);
  for (NodeId dep : preds_)
    ++succCount[dep];
  succOffsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    succOffsets_[i + 1] = succOffsets_[i] + succCount[i];
  succs_.resize(preds_.size());
  std::vector<std::uint32_t> cursor(succOffsets_.begin(),
                                    succOffsets_.begin() +
                                        static_cast<std::ptrdiff_t>(n));
  for (std::size_t v = 0; v < n; ++v)
    for (std::uint32_t k = predOffsets_[v]; k < predOffsets_[v + 1]; ++k)
      succs_[cursor[preds_[k]]++] = static_cast<NodeId>(v);

  indegFirst_.resize(n);
  indegSteady_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t nPreds = predOffsets_[v + 1] - predOffsets_[v];
    const std::uint32_t nSuccs = succOffsets_[v + 1] - succOffsets_[v];
    indegFirst_[v] = nPreds;
    // Later batches additionally wait for the node's own previous batch
    // (+1) and for each direct consumer's previous batch (anti edges).
    indegSteady_[v] = nPreds + nSuccs + 1;
    if (nPreds == 0)
      roots_.push_back(static_cast<NodeId>(v));
  }
  counters_ = std::make_unique<Counters[]>(n);

  // Batch groups: membership map, CSR member lists, one parity counter
  // pair per group, and +1 steady-state token per member (the group
  // release for the previous batch).
  groupOf_.assign(n, kNoGroup);
  groupOffsets_.push_back(0);
  for (std::size_t g = 0; g < buildGroups_.size(); ++g) {
    for (NodeId m : buildGroups_[g]) {
      PIPOLY_CHECK_MSG(groupOf_[m] == kNoGroup,
                       "ReplayGraph node in two batch groups");
      groupOf_[m] = static_cast<std::uint32_t>(g);
      groupMembers_.push_back(m);
      ++indegSteady_[m];
    }
    groupOffsets_.push_back(static_cast<std::uint32_t>(groupMembers_.size()));
  }
  if (!buildGroups_.empty())
    groupCounters_ = std::make_unique<Counters[]>(buildGroups_.size());

  // Cross-group anti edges: CSR by reader group, and one extra
  // steady-state token per incoming edge for every member of the writer
  // group (the reader stage's batch-b release of the writer's batch b+1).
  groupEdgeOffsets_.push_back(0);
  for (std::vector<std::uint32_t>& targets : buildGroupEdges_) {
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (std::uint32_t w : targets) {
      groupEdgeTargets_.push_back(w);
      for (std::uint32_t k = groupOffsets_[w]; k < groupOffsets_[w + 1]; ++k)
        ++indegSteady_[groupMembers_[k]];
    }
    groupEdgeOffsets_.push_back(
        static_cast<std::uint32_t>(groupEdgeTargets_.size()));
  }

  buildGroups_.clear();
  buildGroups_.shrink_to_fit();
  buildGroupEdges_.clear();
  buildGroupEdges_.shrink_to_fit();
  frozen_ = true;
}

std::size_t ReplayGraph::storageBytes() const {
  const std::size_t n = size();
  std::size_t bytes = n * sizeof(Counters) + numGroups() * sizeof(Counters);
  bytes += (preds_.capacity() + succs_.capacity() + roots_.capacity() +
            groupMembers_.capacity()) *
           sizeof(NodeId);
  bytes += (predOffsets_.capacity() + succOffsets_.capacity() +
            indegFirst_.capacity() + indegSteady_.capacity() +
            groupOffsets_.capacity() + groupOf_.capacity() +
            groupEdgeTargets_.capacity() + groupEdgeOffsets_.capacity()) *
           sizeof(std::uint32_t);
  return bytes;
}

DependencyThreadPool::DepEdge* DependencyThreadPool::sealedTag() {
  // Distinct, never-dereferenced sentinel marking a finished task's
  // dependent list.
  static DepEdge sealed;
  return &sealed;
}

DependencyThreadPool::DependencyThreadPool(unsigned numThreads) {
  numThreads = std::max(1u, numThreads);
  // Wake throttle (see shouldWake). Oversubscribed pools keep their
  // extra workers parked instead of timesharing one core.
  const unsigned hw = std::thread::hardware_concurrency();
  wakeCap_ = std::min(numThreads, hw != 0 ? hw : numThreads);
  if (std::optional<unsigned> cap =
          parseWakeCap(std::getenv("PIPOLY_POOL_WAKE_CAP")))
    wakeCap_ = std::min(numThreads, *cap);
  workers_.reserve(numThreads);
  injection_.reserve(numThreads);
  for (unsigned i = 0; i < numThreads; ++i) {
    workers_.push_back(std::make_unique<Worker>(0x9e3779b9u + i));
    injection_.push_back(std::make_unique<InjectionShard>());
  }
  threads_.reserve(numThreads);
  for (unsigned i = 0; i < numThreads; ++i)
    threads_.emplace_back([this, i] { workerLoop(i); });
}

DependencyThreadPool::~DependencyThreadPool() {
  // Drain, but swallow unreported task errors: a destructor must not
  // throw (the old scheduler rethrew here and would have terminated).
  {
    std::unique_lock lock(doneMutex_);
    doneCv_.wait(lock,
                 [&] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  shutdown_.store(true, std::memory_order_release);
  idle_.notifyAll();
  // jthread joins on destruction.
}

namespace {

/// Trampoline of the closure form of submit(): the payload is the
/// heap-held closure, destroyed right after it ran (or threw).
void runHeapClosure(void* payload) {
  std::unique_ptr<std::function<void()>> fn(
      *static_cast<std::function<void()>**>(payload));
  (*fn)();
}

} // namespace

DependencyThreadPool::TaskId
DependencyThreadPool::submit(std::function<void()> fn,
                             std::span<const TaskId> deps) {
  auto heap = std::make_unique<std::function<void()>>(std::move(fn));
  std::function<void()>* raw = heap.get();
  const TaskId id = submit(&runHeapClosure, &raw, sizeof(raw), deps);
  (void)heap.release(); // owned by the task now
  return id;
}

DependencyThreadPool::TaskId
DependencyThreadPool::submit(TaskFunction fn, const void* payload,
                             std::size_t size, std::span<const TaskId> deps) {
  PIPOLY_CHECK_MSG(size <= kInlinePayload,
                   "task payload exceeds kInlinePayload");
  PIPOLY_CHECK_MSG(payload != nullptr || size == 0,
                   "null task payload with non-zero size");
  // Validate against the published id horizon *before* reserving a node,
  // so a rejected submit leaves no half-armed task behind. Any id >= the
  // current count cannot come from a submit() that happened-before this
  // one: it is a self-, forward- or out-of-range dependency.
  const std::size_t horizon = nodes_.size();
  for (TaskId dep : deps)
    PIPOLY_CHECK_MSG(dep < horizon,
                     "dependency on a not-yet-submitted task (self-, forward- "
                     "or out-of-range id)");

  const TaskId id = nodes_.allocate();
  Node& node = nodes_[id];
  node.fn = fn;
  if (size > 0)
    std::memcpy(node.payload, payload, size);
  node.dependents.store(nullptr, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_relaxed);

  if (deps.empty()) {
    // Independent task: no registration window to guard, ready now.
    node.remaining.store(0, std::memory_order_relaxed);
    makeReady(id);
    return id;
  }

  // +1 guard: the task cannot fire while registration is in progress,
  // even if every predecessor finishes concurrently.
  node.remaining.store(deps.size() + 1, std::memory_order_relaxed);

  std::size_t alreadyDone = 1; // the guard
  for (TaskId dep : deps) {
    DepEdge& edge = edges_[edges_.allocate()];
    edge.dependent = id;
    if (!registerDependent(nodes_[dep], edge))
      ++alreadyDone; // predecessor already finished
  }
  if (node.remaining.fetch_sub(alreadyDone, std::memory_order_acq_rel) ==
      alreadyDone)
    makeReady(id);
  return id;
}

bool DependencyThreadPool::registerDependent(Node& pred, DepEdge& edge) {
  DepEdge* head = pred.dependents.load(std::memory_order_acquire);
  while (true) {
    if (head == sealedTag())
      return false;
    edge.next = head;
    if (pred.dependents.compare_exchange_weak(head, &edge,
                                              std::memory_order_release,
                                              std::memory_order_acquire))
      return true;
  }
}

bool DependencyThreadPool::shouldWake(std::size_t searchingAllowance) const {
  // Skip the wakeup when a sweep (beyond the caller's own) is already in
  // flight — the sweeper's post-announcement recheck observes any work
  // published before this load (both are seq_cst) — or when enough
  // workers are already awake that another one would only contend for
  // cores. The awake estimate may be stale, but staleness is one-sided
  // safe: a worker counts as awake until its prepareWait() announcement
  // (seq_cst sleepers_ bump) — and after announcing it rechecks for
  // work, so any publication this thread made before reading the stale
  // count is observed by that recheck. Lost wakeups are impossible;
  // only redundant ones are suppressed.
  if (searching_.load(std::memory_order_seq_cst) > searchingAllowance)
    return false;
  const std::size_t asleep =
      std::min(idle_.sleepersApprox(), workers_.size());
  return workers_.size() - asleep < wakeCap_;
}

void DependencyThreadPool::makeReady(TaskId id) {
  if (tlsBinding.pool == this) {
    // On a worker thread of this pool: push to its own deque (only the
    // owner may push). Thieves pick it up if this worker stays busy.
    Worker& me = *workers_[tlsBinding.index];
    const bool hadBacklog = me.deque.sizeApprox() > 0;
    me.deque.push(id);
    // An empty deque means this worker will pop the task itself as soon
    // as it returns to its loop — waking a sibling for it would only
    // burn a futex. With backlog there is real parallel slack, so wake
    // a thief if the throttle allows one.
    if (hadBacklog && shouldWake())
      idle_.notifyOne();
  } else {
    {
      InjectionShard& shard = *injection_[id % injection_.size()];
      std::lock_guard lock(shard.mutex);
      shard.queue.push_back(id);
      shard.count.store(shard.queue.size(), std::memory_order_seq_cst);
    }
    if (shouldWake())
      idle_.notifyOne();
  }
}

void DependencyThreadPool::runTask(TaskId id) {
  if (id & kGraphFlag) {
    runGraphTask(id);
    return;
  }
  Node& node = nodes_[id];
  try {
    node.fn(node.payload);
  } catch (...) {
    std::lock_guard lock(errorMutex_);
    if (!firstError_)
      firstError_ = std::current_exception();
  }
  finishTask(id);
}

void DependencyThreadPool::finishTask(TaskId id) {
  Node& node = nodes_[id];
  // Seal the dependent list: registrations racing with this exchange
  // either made it onto the list (we publish them below) or observe the
  // sentinel and count the dependency as satisfied.
  DepEdge* head = node.dependents.exchange(sealedTag(),
                                           std::memory_order_acq_rel);
  for (DepEdge* e = head; e != nullptr; e = e->next)
    if (nodes_[e->dependent].remaining.fetch_sub(
            1, std::memory_order_acq_rel) == 1)
      makeReady(e->dependent);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Empty critical section pairs with waitAll()'s predicate check so
    // the notify cannot slip between its pending_ load and its sleep.
    std::lock_guard lock(doneMutex_);
    doneCv_.notify_all();
  }
}

void DependencyThreadPool::sendGraphToken(ReplayGraph& graph,
                                          ReplayGraph::NodeId node,
                                          std::size_t batch) {
  std::atomic<std::uint32_t>& counter = graph.counters_[node].slot[batch & 1];
  if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1)
    makeReady(encodeGraphTask(node, batch));
}

void DependencyThreadPool::runGraphTask(TaskId id) {
  const auto node = static_cast<ReplayGraph::NodeId>(id & 0xffffffffu);
  const std::size_t batch = (id & ~kGraphFlag) >> 32;
  ReplayGraph& graph = *graph_;

  // Re-arm this node's parity slot for batch + 2 before the body runs:
  // every decrement of that slot happens-after this execution finished
  // (the earliest candidates — our own batch+1 self token, a consumer's
  // batch+1 anti token, a producer's batch+2 pred token — all sit behind
  // the self token this execution emits below), so the relaxed store
  // cannot race a token.
  if (batch + 2 < graphBatches_)
    graph.counters_[node].slot[batch & 1].store(graph.indegSteady_[node],
                                                std::memory_order_relaxed);

  try {
    graphBody_(graphContext_, node, batch);
  } catch (...) {
    std::lock_guard lock(errorMutex_);
    if (!firstError_)
      firstError_ = std::current_exception();
  }

  // Token emission (see ReplayGraph's constraint list). A failed body
  // still releases its dependents — errors are reported, never used to
  // cancel the stream.
  for (std::uint32_t k = graph.succOffsets_[node];
       k < graph.succOffsets_[node + 1]; ++k)
    sendGraphToken(graph, graph.succs_[k], batch);
  if (batch + 1 < graphBatches_) {
    sendGraphToken(graph, node, batch + 1); // self (write-after-write)
    for (std::uint32_t k = graph.predOffsets_[node];
         k < graph.predOffsets_[node + 1]; ++k)
      sendGraphToken(graph, graph.preds_[k], batch + 1); // anti
  }

  // Batch-group completion: the member that drops the group's batch-b
  // count to zero re-arms the parity slot for batch b+2 (every b+2
  // decrement happens-after the b+1 release below — a member must
  // receive that release before it can start, let alone finish, b+2),
  // then hands each member its batch-b+1 group token and releases batch
  // b+1 of every writer group this group holds an anti edge to. The
  // writer members' parity slots for b+1 were re-armed when they started
  // batch b-1, which happens-before this release: the writer group's own
  // batch-serial constraint orders all its members' batch b-1 before any
  // member's batch b, and this reader stage's batch b sits behind the
  // writer's batch b along at least one surviving RAW path.
  const std::uint32_t g = graph.groupOf_[node];
  if (g != ReplayGraph::kNoGroup) {
    std::atomic<std::uint32_t>& count = graph.groupCounters_[g].slot[batch & 1];
    if (count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      count.store(graph.groupOffsets_[g + 1] - graph.groupOffsets_[g],
                  std::memory_order_relaxed);
      if (batch + 1 < graphBatches_) {
        for (std::uint32_t k = graph.groupOffsets_[g];
             k < graph.groupOffsets_[g + 1]; ++k)
          sendGraphToken(graph, graph.groupMembers_[k], batch + 1);
        for (std::uint32_t e = graph.groupEdgeOffsets_[g];
             e < graph.groupEdgeOffsets_[g + 1]; ++e) {
          const std::uint32_t w = graph.groupEdgeTargets_[e];
          for (std::uint32_t k = graph.groupOffsets_[w];
               k < graph.groupOffsets_[w + 1]; ++k)
            sendGraphToken(graph, graph.groupMembers_[k], batch + 1);
        }
      }
    }
  }

  if (graphRemaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Empty critical section pairs with runGraph()'s predicate check so
    // the notify cannot slip between its load and its sleep.
    std::lock_guard lock(doneMutex_);
    doneCv_.notify_all();
  }
}

void DependencyThreadPool::runGraph(ReplayGraph& graph, std::size_t numBatches,
                                    ReplayGraph::Body body, void* context) {
  PIPOLY_CHECK_MSG(graph.frozen_, "runGraph on an unfrozen ReplayGraph");
  PIPOLY_CHECK_MSG(tlsBinding.pool != this,
                   "runGraph from inside a task body would deadlock");
  PIPOLY_CHECK_MSG(graph_ == nullptr, "concurrent runGraph on one pool");
  PIPOLY_CHECK_MSG(numBatches <= kMaxGraphBatches, "too many batches");
  const std::size_t n = graph.size();
  if (n == 0 || numBatches == 0)
    return;

  // Reset the ready counters — the whole per-run cost of the graph.
  for (std::size_t v = 0; v < n; ++v) {
    graph.counters_[v].slot[0].store(graph.indegFirst_[v],
                                     std::memory_order_relaxed);
    graph.counters_[v].slot[1].store(
        numBatches > 1 ? graph.indegSteady_[v] : 0,
        std::memory_order_relaxed);
  }
  for (std::size_t g = 0; g < graph.numGroups(); ++g) {
    const std::uint32_t members =
        graph.groupOffsets_[g + 1] - graph.groupOffsets_[g];
    graph.groupCounters_[g].slot[0].store(members, std::memory_order_relaxed);
    graph.groupCounters_[g].slot[1].store(members, std::memory_order_relaxed);
  }
  graph_ = &graph;
  graphBody_ = body;
  graphContext_ = context;
  graphBatches_ = numBatches;
  graphRemaining_.store(n * numBatches, std::memory_order_relaxed);

  // Publish: the injection-shard mutex inside makeReady orders all the
  // plain stores above before any worker touches a graph task.
  for (ReplayGraph::NodeId root : graph.roots_)
    makeReady(encodeGraphTask(root, 0));

  {
    std::unique_lock lock(doneMutex_);
    doneCv_.wait(lock, [&] {
      return graphRemaining_.load(std::memory_order_acquire) == 0;
    });
  }
  graph_ = nullptr;
  graphBody_ = nullptr;
  graphContext_ = nullptr;
  graphBatches_ = 0;

  std::exception_ptr error;
  {
    std::lock_guard lock(errorMutex_);
    error = std::exchange(firstError_, nullptr);
  }
  if (error)
    std::rethrow_exception(error);
}

bool DependencyThreadPool::tryDrainInjection(unsigned self, std::size_t shard,
                                             TaskId& out) {
  // Drain a batch in one lock acquisition: the first task is returned,
  // the rest go to this worker's deque where siblings can steal them.
  constexpr std::size_t kBatch = 32;
  InjectionShard& s = *injection_[shard];
  // Lock-free emptiness peek; seq_cst pairs with the producer's count
  // republish so the parking recheck cannot miss a push (shouldWake()
  // explains the one-sided-staleness argument).
  if (s.count.load(std::memory_order_seq_cst) == 0)
    return false;
  std::size_t moved = 0;
  bool leftover = false;
  {
    std::lock_guard lock(s.mutex);
    if (s.queue.empty())
      return false;
    out = s.queue.front();
    s.queue.pop_front();
    Worker& me = *workers_[self];
    while (moved < kBatch && !s.queue.empty()) {
      me.deque.push(s.queue.front());
      s.queue.pop_front();
      ++moved;
    }
    leftover = !s.queue.empty();
    s.count.store(s.queue.size(), std::memory_order_seq_cst);
  }
  // Cascade: surface the slack we just created to a sibling. Self holds
  // one searching_ unit, hence the allowance.
  if ((leftover || moved > 0) && shouldWake(1))
    idle_.notifyOne();
  return true;
}

bool DependencyThreadPool::tryFindWork(unsigned self, TaskId& out) {
  Worker& me = *workers_[self];
  // 1. Own deque, newest first (cache-warm dependents).
  if (std::optional<TaskId> t = me.deque.pop()) {
    out = *t;
    return true;
  }
  // 2. Injection shards, own shard first.
  const std::size_t nShards = injection_.size();
  for (std::size_t k = 0; k < nShards; ++k)
    if (tryDrainInjection(self, (self + k) % nShards, out))
      return true;
  // 3. Steal, randomized sweep; retry once since steals fail spuriously
  //    when racing other thieves or the owner.
  const std::size_t n = workers_.size();
  for (int round = 0; round < 2; ++round) {
    const std::size_t start = n > 1 ? me.rng.nextBelow(n) : 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == self)
        continue;
      if (std::optional<TaskId> t = workers_[victim]->deque.steal()) {
        // Batch: grab a few more while the victim is hot, amortizing
        // the sweep. Extras go to our own deque (stealable again).
        ++me.steals;
        for (int extra = 0; extra < 7; ++extra) {
          std::optional<TaskId> more = workers_[victim]->deque.steal();
          if (!more)
            break;
          me.deque.push(*more);
          ++me.steals;
        }
        trace::counter("pool.steals", static_cast<double>(me.steals));
        out = *t;
        return true;
      }
    }
  }
  return false;
}

void DependencyThreadPool::workerLoop(unsigned index) {
  tlsBinding = TlsBinding{this, index};
  trace::setThreadName("pool worker " + std::to_string(index));
  Worker& me = *workers_[index];
  TaskId task = 0;
  while (true) {
    // Fast path: drain the own deque without touching the searching_
    // gate. A worker with local work never suppresses producer wakeups
    // (it does not announce itself as sweeping), so the gate's
    // invariant is untouched.
    if (std::optional<TaskId> t = me.deque.pop()) {
      runTask(*t);
      continue;
    }
    searching_.fetch_add(1, std::memory_order_seq_cst);
    const bool found = tryFindWork(index, task);
    searching_.fetch_sub(1, std::memory_order_seq_cst);
    if (found) {
      runTask(task);
      continue;
    }
    // Nothing visible: announce as sleeper, recheck (the announcement
    // and the producers' publications are seq_cst, so one side always
    // sees the other — see event_count.hpp), then park. This final
    // recheck is also what makes the searching_ wakeup gate safe: a
    // producer that skipped its notify because we were sweeping is
    // guaranteed to have its work observed here.
    const std::uint64_t ticket = idle_.prepareWait();
    if (shutdown_.load(std::memory_order_acquire)) {
      idle_.cancelWait();
      return;
    }
    if (tryFindWork(index, task)) {
      idle_.cancelWait();
      runTask(task);
      continue;
    }
    trace::instant("pool.park");
    idle_.wait(ticket);
    trace::instant("pool.unpark");
    if (shutdown_.load(std::memory_order_acquire))
      return;
  }
}

void DependencyThreadPool::recycle() {
  PIPOLY_CHECK_MSG(pending_.load(std::memory_order_acquire) == 0,
                   "recycle() with tasks pending");
  PIPOLY_CHECK_MSG(graphRemaining_.load(std::memory_order_acquire) == 0,
                   "recycle() during runGraph()");
  nodes_.recycle();
  edges_.recycle();
}

void DependencyThreadPool::waitAll() {
  {
    std::unique_lock lock(doneMutex_);
    doneCv_.wait(lock,
                 [&] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(errorMutex_);
    error = std::exchange(firstError_, nullptr);
  }
  if (error)
    std::rethrow_exception(error);
}

} // namespace pipoly::rt
