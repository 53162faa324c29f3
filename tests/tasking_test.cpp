#include "tasking/tasking.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "support/assert.hpp"
#include "tasking/executor.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipoly::tasking {
namespace {

std::vector<std::unique_ptr<TaskingLayer>> allBackends() {
  std::vector<std::unique_ptr<TaskingLayer>> layers;
  layers.push_back(makeSerialBackend());
  layers.push_back(makeThreadPoolBackend(4));
  if (auto omp = makeOpenMPBackend())
    layers.push_back(std::move(omp));
  return layers;
}

struct Payload {
  std::atomic<int>* counter;
  int expectedBefore;
};

void checkAndBump(void* raw) {
  auto* p = static_cast<Payload*>(raw);
  EXPECT_GE(p->counter->fetch_add(1), p->expectedBefore);
}

TEST(TaskingLayerTest, OpenMPBackendIsAvailableInThisBuild) {
  // The build links OpenMP; the paper's primary backend must exist.
  EXPECT_TRUE(openMPAvailable());
  EXPECT_NE(makeOpenMPBackend(), nullptr);
}

TEST(TaskingLayerTest, ChainedDependenciesRunInOrder) {
  for (auto& layer : allBackends()) {
    std::atomic<int> counter{0};
    layer->run([&] {
      // Chain: task k depends on slot of task k-1.
      for (int k = 0; k < 20; ++k) {
        Payload p{&counter, k};
        std::int64_t inDep = k - 1;
        int inIdx = 0;
        layer->createTask(&checkAndBump, &p, sizeof(p),
                          /*outDepend=*/k, /*outIdx=*/0,
                          k > 0 ? &inDep : nullptr, k > 0 ? &inIdx : nullptr,
                          k > 0 ? 1u : 0u);
      }
    });
    EXPECT_EQ(counter.load(), 20) << layer->name();
  }
}

TEST(TaskingLayerTest, CreateTaskOutsideRunThrows) {
  // OpenMP backend cannot detect this cheaply in a parallel-safe way on
  // all runtimes, but serial and threadpool must.
  auto serial = makeSerialBackend();
  Payload p{nullptr, 0};
  EXPECT_THROW(serial->createTask(&checkAndBump, &p, sizeof(p), 0, 0, nullptr,
                                  nullptr, 0),
               Error);
  auto pool = makeThreadPoolBackend(2);
  EXPECT_THROW(pool->createTask(&checkAndBump, &p, sizeof(p), 0, 0, nullptr,
                                nullptr, 0),
               Error);
}

TEST(TaskingLayerTest, InputIsCopiedAtCreation) {
  // The paper's Fig. 8 memcpy: mutating the input struct after createTask
  // must not affect the task.
  for (auto& layer : allBackends()) {
    static std::atomic<int> observed;
    observed = -1;
    struct Value {
      int v;
    };
    auto fn = +[](void* raw) { observed = static_cast<Value*>(raw)->v; };
    layer->run([&] {
      Value val{7};
      layer->createTask(fn, &val, sizeof(val), 0, 0, nullptr, nullptr, 0);
      val.v = 99; // must not be visible to the task
    });
    EXPECT_EQ(observed.load(), 7) << layer->name();
  }
}

std::atomic<int> gZeroSizeRuns{0};

void zeroSizeBody(void*) { gZeroSizeRuns.fetch_add(1); }

TEST(TaskingLayerTest, ZeroSizeInputWithNullPointerIsValid) {
  // inputSize == 0 with a null input must not crash on any backend:
  // malloc(0)/memcpy-on-null are UB, so the backends skip the copy.
  for (auto& layer : allBackends()) {
    gZeroSizeRuns = 0;
    layer->run([&] {
      for (std::int64_t k = 0; k < 8; ++k)
        layer->createTask(&zeroSizeBody, nullptr, 0, k, 0, nullptr, nullptr,
                          0);
    });
    EXPECT_EQ(gZeroSizeRuns.load(), 8) << layer->name();
  }
}

TEST(TaskingLayerTest, ZeroSizeInputTasksStillHonorDependencies) {
  for (auto& layer : allBackends()) {
    static std::atomic<int> order;
    order = 0;
    static std::atomic<int> firstSeen, secondSeen;
    firstSeen = -1;
    secondSeen = -1;
    auto first = +[](void*) { firstSeen = order.fetch_add(1); };
    auto second = +[](void*) { secondSeen = order.fetch_add(1); };
    layer->run([&] {
      layer->createTask(first, nullptr, 0, /*outDepend=*/7, /*outIdx=*/0,
                        nullptr, nullptr, 0);
      std::int64_t inDep = 7;
      int inIdx = 0;
      layer->createTask(second, nullptr, 0, 8, 0, &inDep, &inIdx, 1);
    });
    EXPECT_EQ(firstSeen.load(), 0) << layer->name();
    EXPECT_EQ(secondSeen.load(), 1) << layer->name();
  }
}

/// Payload for tasks that create follow-up tasks from their own body —
/// the threadpool backend advertises thread-safe createTask, so the
/// last-writer table must be guarded (this test races task-body
/// submissions against spawner submissions; TSAN validates the guard).
struct SpawnerPayload {
  TaskingLayer* layer;
  std::atomic<int>* counter;
  std::int64_t slot;
};

void leafBody(void* raw) {
  static_cast<SpawnerPayload*>(raw)->counter->fetch_add(1);
}

void rootBody(void* raw) {
  auto* p = static_cast<SpawnerPayload*>(raw);
  p->counter->fetch_add(1);
  // Children chain on this root's published slot and publish their own.
  for (int c = 0; c < 8; ++c) {
    SpawnerPayload child{p->layer, p->counter, 0};
    std::int64_t inDep = p->slot;
    int inIdx = 1;
    p->layer->createTask(&leafBody, &child, sizeof(child),
                         /*outDepend=*/p->slot * 100 + c, /*outIdx=*/2,
                         &inDep, &inIdx, 1);
  }
}

TEST(TaskingLayerTest, TaskBodiesMayCreateTasksOnThreadPoolBackend) {
  auto layer = makeThreadPoolBackend(4);
  std::atomic<int> counter{0};
  layer->run([&] {
    for (std::int64_t r = 0; r < 16; ++r) {
      SpawnerPayload p{layer.get(), &counter, r};
      layer->createTask(&rootBody, &p, sizeof(p), /*outDepend=*/r,
                        /*outIdx=*/1, nullptr, nullptr, 0);
    }
  });
  EXPECT_EQ(counter.load(), 16 + 16 * 8);
}

TEST(TaskingLayerTest, UnpublishedSlotIsImmediatelyReady) {
  for (auto& layer : allBackends()) {
    std::atomic<int> counter{0};
    layer->run([&] {
      Payload p{&counter, 0};
      std::int64_t dep = 12345; // nobody publishes this slot
      int idx = 3;
      layer->createTask(&checkAndBump, &p, sizeof(p), 0, 0, &dep, &idx, 1);
    });
    EXPECT_EQ(counter.load(), 1) << layer->name();
  }
}

/// Records, for every executed task, the set of tasks finished before it
/// started; used to verify dependency enforcement on parallel backends.
struct OrderRecorder {
  std::mutex mutex;
  std::set<std::int64_t> finished;
  bool violation = false;
};

struct OrderedPayload {
  OrderRecorder* rec;
  std::int64_t self;
  std::int64_t requires0; // -1 = none
  std::int64_t requires1; // -1 = none
};

void orderedBody(void* raw) {
  auto* p = static_cast<OrderedPayload*>(raw);
  std::lock_guard lock(p->rec->mutex);
  if (p->requires0 >= 0 && !p->rec->finished.count(p->requires0))
    p->rec->violation = true;
  if (p->requires1 >= 0 && !p->rec->finished.count(p->requires1))
    p->rec->violation = true;
  p->rec->finished.insert(p->self);
}

TEST(TaskingLayerTest, CrossSlotDependenciesEnforced) {
  for (auto& layer : allBackends()) {
    OrderRecorder rec;
    layer->run([&] {
      // Two producer chains on idx 0 and idx 1, plus consumers on idx 2
      // depending on both.
      for (std::int64_t k = 0; k < 10; ++k) {
        for (int chain = 0; chain < 2; ++chain) {
          OrderedPayload p{&rec, chain * 100 + k,
                           k > 0 ? chain * 100 + (k - 1) : -1, -1};
          std::int64_t inDep = k - 1;
          int inIdx = chain;
          layer->createTask(&orderedBody, &p, sizeof(p), k, chain,
                            k > 0 ? &inDep : nullptr,
                            k > 0 ? &inIdx : nullptr, k > 0 ? 1u : 0u);
        }
      }
      for (std::int64_t k = 0; k < 10; ++k) {
        OrderedPayload p{&rec, 200 + k, 0 * 100 + k, 1 * 100 + k};
        std::int64_t inDeps[2] = {k, k};
        int inIdxs[2] = {0, 1};
        layer->createTask(&orderedBody, &p, sizeof(p), k, 2, inDeps, inIdxs,
                          2);
      }
    });
    EXPECT_FALSE(rec.violation) << layer->name();
    EXPECT_EQ(rec.finished.size(), 30u) << layer->name();
  }
}

class EndToEndTest : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndTest, PipelinedExecutionMatchesSequential) {
  const int which = GetParam();
  scop::Scop scop = which == 0   ? testing::listing1(14)
                    : which == 1 ? testing::listing3(14)
                    : which == 2 ? testing::chain(3, 9)
                                 : testing::chain(5, 7);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  for (auto& layer : allBackends()) {
    testing::InterpretedKernel kernel(scop);
    executeTaskProgram(prog, *layer, kernel.executor());
    EXPECT_EQ(kernel.fingerprint(), expected)
        << "backend " << layer->name() << " produced different results";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, EndToEndTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(EndToEndTest, SlotExecutorHandlesEmptyDependencyLists) {
  // Regression: the slot-table overload used to pass `.data()` of empty
  // in-dependency vectors — possibly null — straight into createTask.
  // Every program's root tasks have empty lists, so any backend that
  // dereferences or UB-checks the pointers would trip here.
  for (int which = 0; which < 2; ++which) {
    scop::Scop scop = which == 0 ? testing::listing1(12) : testing::chain(3, 8);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    const opt::SlotTable slots = opt::buildSlotTable(prog);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    std::size_t rootTasks = 0;
    for (const codegen::Task& t : prog.tasks)
      if (t.in.empty()) ++rootTasks;
    ASSERT_GT(rootTasks, 0u) << "fixture must exercise empty dep lists";
    for (auto& layer : allBackends()) {
      testing::InterpretedKernel kernel(scop);
      executeTaskProgram(prog, slots, *layer, kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected) << layer->name();
    }
  }
}

TEST(TaskingLayerTest, PerRunStateIsReusedOrReleased) {
  // Regression: per-run bookkeeping (last-writer tables, slot arrays,
  // funcCount maps) was cleared but never shrunk, so one oversized run
  // pinned its high-water allocation forever. Policy now: keep capacity
  // while it matches the workload (steady-state runs allocate nothing),
  // release it once a run uses far less.
  auto noop = +[](void*) {};
  for (auto& layer : allBackends()) {
    auto runProgram = [&](std::int64_t numTasks) {
      layer->run([&] {
        for (std::int64_t k = 0; k < numTasks; ++k) {
          std::int64_t inDep = k - 1;
          int inIdx = 0;
          layer->createTask(noop, nullptr, 0, k, 0, k > 0 ? &inDep : nullptr,
                            k > 0 ? &inIdx : nullptr, k > 0 ? 1u : 0u);
        }
      });
    };

    runProgram(4000); // oversized run establishes a high-water mark
    const std::size_t afterBig = layer->retainedBytes();

    runProgram(16); // a far smaller run must trigger the release
    const std::size_t afterSmall = layer->retainedBytes();
    if (afterBig > 0) {
      EXPECT_LT(afterSmall, afterBig) << layer->name();
    }

    // Steady state: identical runs must not change the footprint (the
    // capacity is reused, not reallocated or released).
    runProgram(16);
    const std::size_t steady1 = layer->retainedBytes();
    runProgram(16);
    EXPECT_EQ(layer->retainedBytes(), steady1) << layer->name();
  }
}

TEST(EndToEndTest, RepeatedRunsAreDeterministic) {
  scop::Scop scop = testing::listing3(12);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  auto layer = makeThreadPoolBackend(4);
  std::uint64_t first = 0;
  for (int rep = 0; rep < 5; ++rep) {
    testing::InterpretedKernel kernel(scop);
    executeTaskProgram(prog, *layer, kernel.executor());
    if (rep == 0)
      first = kernel.fingerprint();
    else
      EXPECT_EQ(kernel.fingerprint(), first) << "rep " << rep;
  }
}

// ---- One threadpool backend across many runs.

/// The backend every ThreadPoolBackend* test runs on. It keeps its pool
/// between runs, so these suites exercise reuse across tests as well as
/// within them.
TaskingLayer& sharedPoolBackend() {
  static const std::unique_ptr<TaskingLayer> layer = makeThreadPoolBackend(4);
  return *layer;
}

/// One Table-9 program at a small size, optimized, with its slot table
/// and an interpreted kernel reused (reset) across runs.
struct SuiteCase {
  explicit SuiteCase(const kernels::ProgramSpec& spec)
      : name(spec.name), scop(kernels::buildProgram(spec, 6)),
        prog(codegen::compilePipeline(scop)), kernel(scop) {
    opt::optimize(prog);
    slots = opt::buildSlotTable(prog);
    expected = testing::sequentialFingerprint(scop);
  }

  std::string name;
  scop::Scop scop;
  codegen::TaskProgram prog;
  opt::SlotTable slots;
  testing::InterpretedKernel kernel;
  std::uint64_t expected = 0;
};

std::deque<SuiteCase> table9Cases() {
  std::deque<SuiteCase> cases;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    cases.emplace_back(spec);
  return cases;
}

TEST(ThreadPoolBackendReuseTest, ThousandSlotTableRunsMatchSequential) {
  std::deque<SuiteCase> cases = table9Cases();
  ASSERT_EQ(cases.size(), 10u);
  TaskingLayer& layer = sharedPoolBackend();
  for (std::size_t run = 0; run < 1000; ++run) {
    SuiteCase& c = cases[run % cases.size()];
    c.kernel.reset();
    executeTaskProgram(c.prog, c.slots, layer, c.kernel.executor());
    ASSERT_EQ(c.kernel.fingerprint(), c.expected) << c.name << " run " << run;
  }
}

TEST(ThreadPoolBackendReuseTest, RetainedBytesCountSlabChunks) {
  TaskingLayer& layer = sharedPoolBackend();
  auto noop = +[](void*) {};
  auto runChain = [&](std::int64_t numTasks) {
    layer.run([&] {
      for (std::int64_t k = 0; k < numTasks; ++k) {
        std::int64_t inDep = k - 1;
        int inIdx = 0;
        layer.createTask(noop, nullptr, 0, k, 0, k > 0 ? &inDep : nullptr,
                         k > 0 ? &inIdx : nullptr, k > 0 ? 1u : 0u);
      }
    });
  };
  runChain(4000);
  const std::size_t afterBig = layer.retainedBytes();
  // Pool nodes are cache-line aligned: 4000 of them alone take this much.
  EXPECT_GE(afterBig, 4000u * 64u);
  runChain(16); // releases what the big run left oversized
  EXPECT_LT(layer.retainedBytes(), afterBig);
  runChain(16); // regrows to what a small run needs
  const std::size_t steady = layer.retainedBytes();
  runChain(16);
  EXPECT_EQ(layer.retainedBytes(), steady);
}

TEST(ThreadPoolBackendReuseTest, ReentrantRunIsRejected) {
  TaskingLayer& layer = sharedPoolBackend();
  EXPECT_THROW(layer.run([&] { layer.run([] {}); }), Error);
  std::atomic<int> counter{0};
  layer.run([&] {
    Payload p{&counter, 0};
    layer.createTask(&checkAndBump, &p, sizeof(p), 0, 0, nullptr, nullptr, 0);
  });
  EXPECT_EQ(counter.load(), 1);
}

struct BodyFailure : std::runtime_error {
  BodyFailure() : std::runtime_error("statement body failed") {}
};

TEST(ThreadPoolBackendErrorTest, FailedRunRethrowsAndNextRunIsExact) {
  std::deque<SuiteCase> cases = table9Cases();
  TaskingLayer& layer = sharedPoolBackend();
  for (std::size_t run = 0; run < 40; ++run) {
    SuiteCase& c = cases[run % cases.size()];
    c.kernel.reset();
    if (run % 4 == 1) {
      // A body throws part-way through the run: the run reports it after
      // draining, and the backend is ready for the next one.
      std::atomic<int> calls{0};
      const StatementExecutor inner = c.kernel.executor();
      const StatementExecutor failing = [&](std::size_t s,
                                            const pb::Tuple& it) {
        if (calls.fetch_add(1) == 5)
          throw BodyFailure();
        inner(s, it);
      };
      EXPECT_THROW(executeTaskProgram(c.prog, c.slots, layer, failing),
                   BodyFailure)
          << c.name << " run " << run;
    } else if (run % 4 == 3) {
      // The spawner itself throws with tasks already in flight.
      EXPECT_THROW(layer.run([&] {
        Payload p{nullptr, 0};
        layer.createTask(+[](void*) {}, &p, sizeof(p), 0, 0, nullptr, nullptr,
                         0);
        throw BodyFailure();
      }),
                   BodyFailure);
    } else {
      executeTaskProgram(c.prog, c.slots, layer, c.kernel.executor());
      EXPECT_EQ(c.kernel.fingerprint(), c.expected)
          << c.name << " run " << run;
    }
  }
}

TEST(ThreadPoolBackendNestedTest, TaskBodiesCreateTasksAcrossRuns) {
  TaskingLayer& layer = sharedPoolBackend();
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> counter{0};
    layer.run([&] {
      for (std::int64_t r = 0; r < 16; ++r) {
        SpawnerPayload p{&layer, &counter, r};
        layer.createTask(&rootBody, &p, sizeof(p), /*outDepend=*/r,
                         /*outIdx=*/1, nullptr, nullptr, 0);
      }
    });
    ASSERT_EQ(counter.load(), 16 + 16 * 8) << "run " << run;
  }
}

} // namespace
} // namespace pipoly::tasking
