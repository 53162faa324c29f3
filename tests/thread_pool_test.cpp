#include "runtime/thread_pool.hpp"

#include "support/assert.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace pipoly::rt {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  DependencyThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { ++count; }, {});
  pool.waitAll();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, HonorsDependencies) {
  DependencyThreadPool pool(4);
  std::atomic<int> stage{0};
  auto a = pool.submit(
      [&] {
        int expected = 0;
        EXPECT_TRUE(stage.compare_exchange_strong(expected, 1));
      },
      {});
  std::vector<DependencyThreadPool::TaskId> deps{a};
  auto b = pool.submit(
      [&] {
        int expected = 1;
        EXPECT_TRUE(stage.compare_exchange_strong(expected, 2));
      },
      deps);
  std::vector<DependencyThreadPool::TaskId> deps2{b};
  pool.submit(
      [&] {
        int expected = 2;
        EXPECT_TRUE(stage.compare_exchange_strong(expected, 3));
      },
      deps2);
  pool.waitAll();
  EXPECT_EQ(stage.load(), 3);
}

TEST(ThreadPoolTest, DiamondDependency) {
  DependencyThreadPool pool(4);
  std::atomic<int> order{0};
  std::atomic<int> leftDone{0}, rightDone{0};
  auto top = pool.submit([&] { order = 1; }, {});
  std::vector<DependencyThreadPool::TaskId> fromTop{top};
  auto left = pool.submit([&] { leftDone = 1; }, fromTop);
  auto right = pool.submit([&] { rightDone = 1; }, fromTop);
  std::vector<DependencyThreadPool::TaskId> both{left, right};
  pool.submit(
      [&] {
        EXPECT_EQ(leftDone.load(), 1);
        EXPECT_EQ(rightDone.load(), 1);
      },
      both);
  pool.waitAll();
}

TEST(ThreadPoolTest, DependencyOnFinishedTask) {
  DependencyThreadPool pool(2);
  std::atomic<int> value{0};
  auto a = pool.submit([&] { value = 42; }, {});
  pool.waitAll();
  std::vector<DependencyThreadPool::TaskId> deps{a};
  pool.submit([&] { EXPECT_EQ(value.load(), 42); }, deps);
  pool.waitAll();
}

TEST(ThreadPoolTest, ForwardOnlyDependenciesEnforced) {
  DependencyThreadPool pool(1);
  std::vector<DependencyThreadPool::TaskId> bogus{42};
  EXPECT_THROW((void)pool.submit([] {}, bogus), Error);
  // Leave the pool in a sane state.
  pool.waitAll();
}

TEST(ThreadPoolTest, ExceptionPropagatesFromWaitAll) {
  DependencyThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); }, {});
  pool.submit([] {}, {});
  EXPECT_THROW(pool.waitAll(), std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> ok{0};
  pool.submit([&] { ok = 1; }, {});
  pool.waitAll();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, StressRandomDag) {
  DependencyThreadPool pool(8);
  SplitMix64 rng(7);
  const std::size_t n = 500;
  std::vector<std::atomic<bool>> done(n);
  std::vector<std::vector<DependencyThreadPool::TaskId>> allDeps(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& deps = allDeps[i];
    for (std::size_t k = 0; k < rng.nextBelow(4) && i > 0; ++k)
      deps.push_back(rng.nextBelow(i));
    pool.submit(
        [&, i, deps] {
          for (auto d : deps)
            EXPECT_TRUE(done[d].load()) << "task " << i << " ran before dep "
                                        << d;
          done[i].store(true);
        },
        allDeps[i]);
  }
  pool.waitAll();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(done[i].load());
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  DependencyThreadPool pool(1);
  std::atomic<int> count{0};
  std::vector<DependencyThreadPool::TaskId> prev;
  for (int i = 0; i < 50; ++i) {
    auto id = pool.submit([&] { ++count; }, prev);
    prev = {id};
  }
  pool.waitAll();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SelfDependencyRejected) {
  DependencyThreadPool pool(2);
  // Ids are dense from a single submitter: after three tasks the next
  // submit would get id 3, so a dependency on 3 is a self-dependency.
  for (int i = 0; i < 3; ++i)
    pool.submit([] {}, {});
  std::vector<DependencyThreadPool::TaskId> self{3};
  EXPECT_THROW((void)pool.submit([] {}, self), Error);
  // The rejected submission leaves no half-armed task behind.
  std::atomic<int> ok{0};
  pool.submit([&] { ok = 1; }, {});
  pool.waitAll();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, OutOfRangeDependencyRejected) {
  DependencyThreadPool pool(2);
  pool.submit([] {}, {});
  std::vector<DependencyThreadPool::TaskId> bogus{1000000000};
  EXPECT_THROW((void)pool.submit([] {}, bogus), Error);
  pool.waitAll();
  std::atomic<int> ok{0};
  pool.submit([&] { ok = 1; }, {});
  pool.waitAll();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, ExceptionMidGraphStillRunsDependentsFirstErrorWins) {
  // Documented policy: a failed task's dependents still run (errors are
  // reported, never used to cancel the graph), and waitAll rethrows
  // exactly the *first* recorded error.
  DependencyThreadPool pool(4);
  std::atomic<bool> bRan{false}, cRan{false};
  auto a = pool.submit([] { throw std::runtime_error("first"); }, {});
  std::vector<DependencyThreadPool::TaskId> depA{a};
  auto b = pool.submit(
      [&] {
        bRan = true;
        throw std::runtime_error("second");
      },
      depA);
  std::vector<DependencyThreadPool::TaskId> depB{b};
  pool.submit([&] { cRan = true; }, depB);
  try {
    pool.waitAll();
    FAIL() << "waitAll must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_TRUE(bRan.load());
  EXPECT_TRUE(cRan.load());
  // The error was consumed: the next waitAll is clean.
  pool.waitAll();
}

TEST(ThreadPoolTest, WakeCapParsingAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(parseWakeCap("1"), 1u);
  EXPECT_EQ(parseWakeCap("4"), 4u);
  EXPECT_EQ(parseWakeCap("128"), 128u);
  EXPECT_EQ(parseWakeCap("  8  "), 8u); // surrounding whitespace is fine
}

TEST(ThreadPoolTest, WakeCapParsingRejectsGarbage) {
  // The env var used to go straight through atoi-style parsing, silently
  // turning typos into a wake cap of 0 (no wakeups beyond the first).
  EXPECT_EQ(parseWakeCap(nullptr), std::nullopt);
  EXPECT_EQ(parseWakeCap(""), std::nullopt);
  EXPECT_EQ(parseWakeCap("   "), std::nullopt);
  EXPECT_EQ(parseWakeCap("abc"), std::nullopt);
  EXPECT_EQ(parseWakeCap("4x"), std::nullopt);   // trailing garbage
  EXPECT_EQ(parseWakeCap("3.5"), std::nullopt);  // not an integer
  EXPECT_EQ(parseWakeCap("0"), std::nullopt);    // zero disables wakeups
  EXPECT_EQ(parseWakeCap("-3"), std::nullopt);   // strtoul would wrap this
  EXPECT_EQ(parseWakeCap("+4"), std::nullopt);   // no signs accepted
  EXPECT_EQ(parseWakeCap("0x10"), std::nullopt); // decimal only
  EXPECT_EQ(parseWakeCap("99999999999999999999"), std::nullopt); // overflow
}

// ---- Payload tasks and recycling.

/// Blocks until *flag is set; the flag is the task's payload pointer.
void waitForFlag(void* payload) {
  const auto* flag = *static_cast<std::atomic<bool>**>(payload);
  while (!flag->load())
    std::this_thread::yield();
}

struct Recorded {
  int value;
  std::atomic<int>* out;
};

void recordValue(void* payload) {
  const auto* r = static_cast<Recorded*>(payload);
  r->out->store(r->value);
}

TEST(ThreadPoolTest, PayloadBytesAreCopiedAtSubmit) {
  DependencyThreadPool pool(2);
  std::atomic<bool> go{false};
  std::atomic<bool>* goPtr = &go;
  const auto gate = pool.submit(&waitForFlag, &goPtr, sizeof(goPtr), {});
  std::atomic<int> seen{-1};
  Recorded buffer{7, &seen};
  const DependencyThreadPool::TaskId deps[] = {gate};
  pool.submit(&recordValue, &buffer, sizeof(buffer), deps);
  // The task cannot have started (its gate is closed): only a copy taken
  // inside submit() still holds 7.
  buffer.value = 99;
  go = true;
  pool.waitAll();
  EXPECT_EQ(seen.load(), 7);
}

std::atomic<int> gNullPayloadRuns{0};

TEST(ThreadPoolTest, ZeroSizePayloadMayBeNull) {
  gNullPayloadRuns = 0;
  DependencyThreadPool pool(2);
  const auto a = pool.submit(+[](void*) { gNullPayloadRuns.fetch_add(1); },
                             nullptr, 0, {});
  const DependencyThreadPool::TaskId deps[] = {a};
  pool.submit(+[](void*) { gNullPayloadRuns.fetch_add(1); }, nullptr, 0, deps);
  pool.waitAll();
  EXPECT_EQ(gNullPayloadRuns.load(), 2);
}

TEST(ThreadPoolTest, OversizedOrNullPayloadIsRejected) {
  DependencyThreadPool pool(1);
  std::byte big[DependencyThreadPool::kInlinePayload + 1] = {};
  EXPECT_THROW((void)pool.submit(+[](void*) {}, big, sizeof(big), {}), Error);
  EXPECT_THROW((void)pool.submit(+[](void*) {}, nullptr, 4, {}), Error);
  pool.waitAll();
  // Neither rejected submit reserved an id.
  EXPECT_EQ(pool.submit(+[](void*) {}, nullptr, 0, {}), 0u);
  pool.waitAll();
}

TEST(ThreadPoolTest, ClosureSubmitReleasesCapturedState) {
  DependencyThreadPool pool(2);
  auto state = std::make_shared<int>(5);
  std::weak_ptr<int> watch = state;
  std::atomic<int> seen{0};
  pool.submit([state, &seen] { seen = *state; }, {});
  state.reset();
  pool.waitAll();
  EXPECT_EQ(seen.load(), 5);
  EXPECT_TRUE(watch.expired()) << "the finished task still holds its closure";
}

TEST(ThreadPoolTest, RecycleThrowsWhileTasksArePending) {
  DependencyThreadPool pool(2);
  std::atomic<bool> go{false};
  std::atomic<bool>* goPtr = &go;
  pool.submit(&waitForFlag, &goPtr, sizeof(goPtr), {});
  EXPECT_THROW(pool.recycle(), Error);
  go = true;
  pool.waitAll();
  pool.recycle(); // quiescent now
}

struct RecycleProbe {
  DependencyThreadPool* pool;
  std::atomic<int> rejected{0};
};

void recycleFromGraphBody(void* context, ReplayGraph::NodeId, std::size_t) {
  auto* probe = static_cast<RecycleProbe*>(context);
  try {
    probe->pool->recycle();
  } catch (const Error&) {
    probe->rejected.fetch_add(1);
  }
}

TEST(ThreadPoolTest, RecycleThrowsDuringRunGraph) {
  ReplayGraph graph;
  graph.addNode({});
  const ReplayGraph::NodeId first[] = {0};
  graph.addNode(first);
  graph.freeze();
  DependencyThreadPool pool(2);
  RecycleProbe probe{&pool};
  pool.runGraph(graph, 3, &recycleFromGraphBody, &probe);
  EXPECT_EQ(probe.rejected.load(), 6);
  pool.recycle(); // the run is over
}

TEST(ThreadPoolTest, IdsRestartAtZeroAfterRecycle) {
  DependencyThreadPool pool(2);
  std::atomic<int> count{0};
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(pool.submit([&] { ++count; }, {}), i);
  pool.waitAll();
  pool.recycle();
  const auto a = pool.submit([&] { ++count; }, {});
  EXPECT_EQ(a, 0u);
  // Recycled nodes start with an empty dependent list: a dependency on a
  // node whose previous incarnation finished is not "already done".
  std::atomic<bool> go{false};
  std::atomic<bool>* goPtr = &go;
  const auto gate = pool.submit(&waitForFlag, &goPtr, sizeof(goPtr), {});
  EXPECT_EQ(gate, 1u);
  std::atomic<int> seen{-1};
  Recorded r{1, &seen};
  const DependencyThreadPool::TaskId deps[] = {gate};
  pool.submit(&recordValue, &r, sizeof(r), deps);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(seen.load(), -1) << "dependent ran before its gate";
  go = true;
  pool.waitAll();
  EXPECT_EQ(seen.load(), 1);
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, RecycleKeepsTwiceTheHighWaterMark) {
  DependencyThreadPool pool(1);
  EXPECT_EQ(pool.retainedBytes(), 0u);
  std::vector<DependencyThreadPool::TaskId> prev;
  for (int i = 0; i < 5000; ++i) // five node and five edge chunks
    prev = {pool.submit(+[](void*) {}, nullptr, 0, prev)};
  pool.waitAll();
  pool.recycle();
  const std::size_t big = pool.retainedBytes();
  EXPECT_GT(big, 0u);
  pool.submit(+[](void*) {}, nullptr, 0, {});
  pool.waitAll();
  pool.recycle(); // one node chunk used: keep two, release the rest
  const std::size_t small = pool.retainedBytes();
  EXPECT_LT(small, big);
  pool.submit(+[](void*) {}, nullptr, 0, {});
  pool.waitAll();
  pool.recycle();
  EXPECT_EQ(pool.retainedBytes(), small);
}

TEST(ChunkedSlabTest, RecyclingLiftsTheLifetimeCapacity) {
  ChunkedSlab<int, 2, 4> slab; // 4 chunks of 4: 16 indices per cycle
  std::size_t total = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(slab.allocate(), i);
      slab[i] = cycle;
      ++total;
    }
    EXPECT_EQ(slab.size(), 16u);
    EXPECT_EQ(slab.retainedBytes(), 16 * sizeof(int));
    slab.recycle();
    EXPECT_EQ(slab.size(), 0u);
  }
  EXPECT_GT(total, 16u);
  // A reused element keeps what the previous cycle left in it.
  EXPECT_EQ(slab.allocate(), 0u);
  EXPECT_EQ(slab[0], 2);
  // Within one cycle the cap still holds.
  for (std::size_t i = 1; i < 16; ++i)
    slab.allocate();
  EXPECT_THROW(slab.allocate(), Error);
}

TEST(ChunkedSlabTest, RecycleReleasesChunksBeyondTwiceTheHighWaterMark) {
  ChunkedSlab<int, 2, 4> slab;
  for (int i = 0; i < 16; ++i)
    slab.allocate();
  slab.recycle(); // used 4 chunks: keep them all
  EXPECT_EQ(slab.retainedBytes(), 16 * sizeof(int));
  slab.allocate();
  slab.recycle(); // used 1 chunk: keep 2
  EXPECT_EQ(slab.retainedBytes(), 8 * sizeof(int));
  slab.recycle(); // an empty cycle still keeps one chunk
  EXPECT_EQ(slab.retainedBytes(), 4 * sizeof(int));
  // Released chunks are recreated on demand.
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(slab.allocate(), i);
  EXPECT_EQ(slab.retainedBytes(), 16 * sizeof(int));
}

// ---- ReplayGraph: the frozen reusable task graph behind CompiledPipeline.

/// Shared observation state for graph bodies (plain function pointers).
/// The probe keeps its own copy of the edge list — the frozen graph's
/// adjacency is an implementation detail.
struct GraphProbe {
  // finished[node] = number of completed batches of that node.
  std::vector<std::atomic<std::size_t>> finished;
  std::vector<std::vector<ReplayGraph::NodeId>> preds;
  std::atomic<bool> violation{false};
  std::atomic<std::size_t> runs{0};

  explicit GraphProbe(std::size_t n) : finished(n), preds(n) {}
};

/// Asserts the streaming constraints at entry: this node finished batch
/// b-1 (write-after-write), and every predecessor finished batch b.
void probeBody(void* context, ReplayGraph::NodeId node, std::size_t batch) {
  auto* probe = static_cast<GraphProbe*>(context);
  if (probe->finished[node].load() != batch)
    probe->violation = true;
  probe->runs.fetch_add(1);
  probe->finished[node].fetch_add(1);
}

ReplayGraph diamondGraph() {
  // 0 -> {1, 2} -> 3
  ReplayGraph graph;
  graph.addNode({});
  const ReplayGraph::NodeId top[] = {0};
  graph.addNode(top);
  graph.addNode(top);
  const ReplayGraph::NodeId mid[] = {1, 2};
  graph.addNode(mid);
  graph.freeze();
  return graph;
}

TEST(ThreadPoolTest, ReplayGraphRunsDiamondRepeatedly) {
  ReplayGraph graph = diamondGraph();
  EXPECT_EQ(graph.size(), 4u);
  EXPECT_EQ(graph.numEdges(), 4u);
  DependencyThreadPool pool(4);
  GraphProbe probe(4);
  for (int run = 0; run < 50; ++run) {
    for (auto& f : probe.finished)
      f = 0;
    pool.runGraph(graph, 1, &probeBody, &probe);
    for (auto& f : probe.finished)
      EXPECT_EQ(f.load(), 1u) << "run " << run;
  }
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.runs.load(), 200u);
}

/// Streaming body: additionally checks every predecessor finished this
/// batch before we start (the per-batch dependency constraint).
void streamBody(void* context, ReplayGraph::NodeId node, std::size_t batch) {
  auto* probe = static_cast<GraphProbe*>(context);
  if (probe->finished[node].load() != batch)
    probe->violation = true;
  for (ReplayGraph::NodeId pred : probe->preds[node])
    if (probe->finished[pred].load() < batch + 1)
      probe->violation = true;
  probe->runs.fetch_add(1);
  probe->finished[node].fetch_add(1);
}

TEST(ThreadPoolTest, ReplayGraphStreamsBatchesUnderTheDependencyOrder) {
  // A layered DAG: 2 roots, a shared middle layer, 2 sinks.
  ReplayGraph graph;
  graph.addNode({});
  graph.addNode({});
  const ReplayGraph::NodeId roots[] = {0, 1};
  graph.addNode(roots);
  graph.addNode(roots);
  const ReplayGraph::NodeId mids[] = {2, 3};
  graph.addNode(mids);
  graph.addNode(mids);
  graph.freeze();

  DependencyThreadPool pool(4);
  constexpr std::size_t kBatches = 200;
  GraphProbe probe(graph.size());
  probe.preds[2] = {0, 1};
  probe.preds[3] = {0, 1};
  probe.preds[4] = {2, 3};
  probe.preds[5] = {2, 3};
  pool.runGraph(graph, kBatches, &streamBody, &probe);
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.runs.load(), graph.size() * kBatches);
  for (auto& f : probe.finished)
    EXPECT_EQ(f.load(), kBatches);
}

TEST(ThreadPoolTest, ReplayGraphSingleNodeStreamRunsEveryBatch) {
  ReplayGraph graph;
  graph.addNode({});
  graph.freeze();
  DependencyThreadPool pool(4);
  GraphProbe probe(1);
  pool.runGraph(graph, 1000, &probeBody, &probe);
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.finished[0].load(), 1000u);
}

void throwingBody(void* context, ReplayGraph::NodeId node, std::size_t) {
  auto* probe = static_cast<GraphProbe*>(context);
  probe->runs.fetch_add(1);
  if (node == 1)
    throw Error("graph body failure");
}

TEST(ThreadPoolTest, ReplayGraphReportsBodyErrorsAfterDraining) {
  ReplayGraph graph = diamondGraph();
  DependencyThreadPool pool(4);
  GraphProbe probe(4);
  EXPECT_THROW(pool.runGraph(graph, 1, &throwingBody, &probe), Error);
  // A failed body still releases its dependents: everything ran.
  EXPECT_EQ(probe.runs.load(), 4u);

  // The pool must stay fully usable afterwards — for graphs and for
  // ordinary submissions.
  probe.runs = 0;
  for (auto& f : probe.finished)
    f = 0;
  pool.runGraph(graph, 1, &probeBody, &probe);
  EXPECT_EQ(probe.runs.load(), 4u);
  std::atomic<int> plain{0};
  pool.submit([&] { ++plain; }, {});
  pool.waitAll();
  EXPECT_EQ(plain.load(), 1);
}

TEST(ThreadPoolTest, ReplayGraphBuildErrorsAreChecked) {
  ReplayGraph graph;
  graph.addNode({});
  const ReplayGraph::NodeId self[] = {1};
  EXPECT_THROW(graph.addNode(self), Error); // dep must be an earlier node

  ReplayGraph unfrozen;
  unfrozen.addNode({});
  DependencyThreadPool pool(2);
  GraphProbe probe(1);
  EXPECT_THROW(pool.runGraph(unfrozen, 1, &probeBody, &probe), Error);

  ReplayGraph frozen = diamondGraph();
  EXPECT_THROW(frozen.addNode({}), Error); // sealed

  // Empty graphs and zero batches are no-ops.
  ReplayGraph empty;
  empty.freeze();
  pool.runGraph(empty, 5, &probeBody, &probe);
  pool.runGraph(frozen, 0, &probeBody, &probe);
  EXPECT_EQ(probe.runs.load(), 0u);
}

TEST(ThreadPoolTest, SingleWorkerExecutesAnyDagInTopologicalOrder) {
  DependencyThreadPool pool(1);
  SplitMix64 rng(11);
  const std::size_t n = 200;
  std::vector<std::vector<DependencyThreadPool::TaskId>> deps(n);
  std::vector<std::size_t> position(n, 0);
  std::size_t clock = 0; // one worker: no synchronization needed
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0)
      for (std::size_t k = rng.nextBelow(3); k > 0; --k)
        deps[i].push_back(rng.nextBelow(i));
    pool.submit([&position, &clock, i] { position[i] = ++clock; }, deps[i]);
  }
  pool.waitAll();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(position[i], 0u) << "task " << i << " never ran";
    for (auto d : deps[i])
      EXPECT_LT(position[d], position[i])
          << "task " << i << " ran before its dep " << d;
  }
}

} // namespace
} // namespace pipoly::rt
