// Tests for the persistent replay executor (tasking::CompiledPipeline):
// bit-identity against executeTaskProgram and the sequential oracle,
// long-run determinism on every engine, batch streaming semantics, the
// linear fast path, and the TaskProgram lifetime contract.

#include "tasking/replay_executor.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "support/assert.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pipoly::tasking {
namespace {

/// Replay options with `threads` workers.
CompiledPipeline::Options onThreads(unsigned threads) {
  CompiledPipeline::Options options;
  options.numThreads = threads;
  return options;
}

scop::Scop fixtureScop(int which) {
  switch (which) {
  case 0:
    return testing::listing1(12);
  case 1:
    return testing::listing3(12);
  case 2:
    return testing::chain(3, 8);
  default:
    return testing::chain(5, 6);
  }
}

std::shared_ptr<const codegen::TaskProgram>
compileShared(const scop::Scop& scop, bool optimized) {
  auto prog = std::make_shared<codegen::TaskProgram>(
      codegen::compilePipeline(scop));
  if (optimized)
    opt::optimize(*prog);
  return prog;
}

/// Fixture × optimizer on/off × thread count.
class ReplayEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool, unsigned>> {};

TEST_P(ReplayEquivalenceTest, ReplayMatchesSequentialAndExecutor) {
  const auto [which, optimized, threads] = GetParam();
  const scop::Scop scop = fixtureScop(which);
  auto prog = compileShared(scop, optimized);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);

  // Reference: the one-shot executor on the threadpool backend.
  {
    testing::InterpretedKernel kernel(scop);
    auto layer = makeThreadPoolBackend(4);
    executeTaskProgram(*prog, *layer, kernel.executor());
    ASSERT_EQ(kernel.fingerprint(), expected);
  }

  CompiledPipeline pipe(prog, onThreads(threads));
  for (int rep = 0; rep < 3; ++rep) {
    testing::InterpretedKernel kernel(scop);
    pipe.replay(kernel.executor());
    EXPECT_EQ(kernel.fingerprint(), expected)
        << "rep " << rep << " threads " << threads << " opt " << optimized;
  }
  EXPECT_EQ(pipe.stats().replays, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ReplayEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3), ::testing::Bool(),
                       ::testing::Values(1u, 4u)));

TEST(ReplayTable9Test, ReplayBitIdenticalToExecutorOnAllPrograms) {
  // P1–P10, optimizer on and off: replay() must reproduce exactly what
  // executeTaskProgram produces (which itself must match sequential).
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 10);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    for (bool optimized : {false, true}) {
      auto prog = compileShared(scop, optimized);

      testing::InterpretedKernel viaExecutor(scop);
      auto layer = makeThreadPoolBackend(4);
      executeTaskProgram(*prog, *layer, viaExecutor.executor());
      ASSERT_EQ(viaExecutor.fingerprint(), expected)
          << spec.name << " opt " << optimized;

      CompiledPipeline pipe(prog, onThreads(4));
      testing::InterpretedKernel viaReplay(scop);
      pipe.replay(viaReplay.executor());
      EXPECT_EQ(viaReplay.fingerprint(), expected)
          << spec.name << " opt " << optimized;
    }
  }
}

TEST(ReplayDeterminismTest, ThousandReplaysAreBitIdenticalOnEveryEngine) {
  // The determinism gate: >= 1000 runs on the serial engine, the
  // persistent pool and (through executeTaskProgram with a slot table
  // built once) the OpenMP backend, with the optimizer both off and on,
  // all reproducing the sequential fingerprint bit for bit.
  const scop::Scop scop = testing::listing3(8);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  constexpr int kReplays = 1000;

  for (bool optimized : {false, true}) {
    auto prog = compileShared(scop, optimized);

    CompiledPipeline serial(prog, onThreads(1));
    CompiledPipeline pooled(prog, onThreads(4));
    const opt::SlotTable slots = opt::buildSlotTable(*prog);
    auto omp = makeOpenMPBackend();

    for (int rep = 0; rep < kReplays; ++rep) {
      testing::InterpretedKernel kernel(scop);
      serial.replay(kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << "serial rep " << rep << " opt " << optimized;

      kernel.reset();
      pooled.replay(kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << "pooled rep " << rep << " opt " << optimized;

      if (omp) {
        kernel.reset();
        executeTaskProgram(*prog, slots, *omp, kernel.executor());
        ASSERT_EQ(kernel.fingerprint(), expected)
            << "openmp rep " << rep << " opt " << optimized;
      }
    }
    EXPECT_EQ(serial.stats().replays, static_cast<std::uint64_t>(kReplays));
    EXPECT_EQ(pooled.stats().replays, static_cast<std::uint64_t>(kReplays));
  }
}

TEST(ReplayStreamTest, EveryStreamedBatchMatchesTheSingleRunFingerprint) {
  const scop::Scop scop = testing::listing1(10);
  auto prog = compileShared(scop, true);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  constexpr std::size_t kBatches = 16;

  // One kernel instance per batch: batches touch disjoint state, so the
  // cross-batch overlap replayBatches allows is harmless and each batch
  // must independently reproduce the single-run result.
  std::vector<std::unique_ptr<testing::InterpretedKernel>> kernels;
  for (std::size_t b = 0; b < kBatches; ++b)
    kernels.push_back(std::make_unique<testing::InterpretedKernel>(scop));

  CompiledPipeline pipe(prog, onThreads(4));
  pipe.replayBatches(kBatches, [&](std::size_t batch, std::size_t stmtIdx,
                                   const pb::Tuple& it) {
    kernels[batch]->execute(stmtIdx, it);
  });
  for (std::size_t b = 0; b < kBatches; ++b)
    EXPECT_EQ(kernels[b]->fingerprint(), expected) << "batch " << b;
  EXPECT_EQ(pipe.stats().batches, kBatches);
}

TEST(ReplayStreamTest, BatchesOfOneInstanceArriveInOrder) {
  // Per dynamic instance (stmtIdx, iteration), the stream must deliver
  // batches 0, 1, 2, ... in order — the write-after-write constraint of
  // the streaming protocol observed from the outside.
  const scop::Scop scop = testing::listing3(8);
  auto prog = compileShared(scop, false);
  constexpr std::size_t kBatches = 12;

  std::mutex mutex;
  std::map<std::pair<std::size_t, pb::Tuple>, std::size_t> nextBatch;
  bool violation = false;

  CompiledPipeline pipe(prog, onThreads(4));
  pipe.replayBatches(kBatches, [&](std::size_t batch, std::size_t stmtIdx,
                                   const pb::Tuple& it) {
    std::lock_guard lock(mutex);
    std::size_t& next = nextBatch[{stmtIdx, it}];
    if (batch != next)
      violation = true;
    ++next;
  });
  EXPECT_FALSE(violation);
  for (const auto& [instance, count] : nextBatch)
    EXPECT_EQ(count, kBatches);
}

TEST(ReplayStreamTest, StreamOnOneThreadRunsBatchesBackToBack) {
  const scop::Scop scop = testing::listing1(8);
  auto prog = compileShared(scop, true);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);

  std::vector<std::unique_ptr<testing::InterpretedKernel>> kernels;
  for (std::size_t b = 0; b < 4; ++b)
    kernels.push_back(std::make_unique<testing::InterpretedKernel>(scop));
  CompiledPipeline pipe(prog, onThreads(1));
  pipe.replayBatches(4, [&](std::size_t batch, std::size_t stmtIdx,
                            const pb::Tuple& it) {
    kernels[batch]->execute(stmtIdx, it);
  });
  for (std::size_t b = 0; b < 4; ++b)
    EXPECT_EQ(kernels[b]->fingerprint(), expected) << "batch " << b;
}

/// A hand-built linear chain: task i depends exactly on task i - 1.
codegen::TaskProgram linearChainProgram(std::size_t n) {
  codegen::TaskProgram prog;
  prog.numStatements = 1;
  for (std::size_t i = 0; i < n; ++i) {
    codegen::Task task;
    task.id = i;
    task.stmtIdx = 0;
    task.blockRep = pb::Tuple{static_cast<pb::Value>(i)};
    task.iterations = {pb::Tuple{static_cast<pb::Value>(i)}};
    task.out = {0, static_cast<std::int64_t>(i)};
    if (i > 0)
      task.in = {{0, static_cast<std::int64_t>(i - 1), true}};
    prog.tasks.push_back(std::move(task));
  }
  return prog;
}

TEST(ReplayLinearTest, LinearChainTakesTheSerialFastPath) {
  constexpr std::size_t kTasks = 24;
  CompiledPipeline pipe(linearChainProgram(kTasks), onThreads(4));
  EXPECT_TRUE(pipe.linear());

  // The fast path runs in creation order on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<pb::Value> order;
  bool offThread = false;
  pipe.replay([&](std::size_t, const pb::Tuple& it) {
    if (std::this_thread::get_id() != caller)
      offThread = true;
    order.push_back(it[0]);
  });
  EXPECT_FALSE(offThread);
  ASSERT_EQ(order.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(order[i], static_cast<pb::Value>(i));
  EXPECT_EQ(pipe.stats().linearReplays, 1u);
}

TEST(ReplayLinearTest, DisabledFastPathStillRunsChainInOrder) {
  constexpr std::size_t kTasks = 24;
  CompiledPipeline pipe(linearChainProgram(kTasks), onThreads(4));
  EXPECT_TRUE(pipe.linear());

  // A one-batch stream skips the serial fast path: through the graph
  // machinery the chain's dependencies still admit exactly one order.
  std::mutex mutex;
  std::vector<pb::Value> order;
  pipe.replayBatches(1, [&](std::size_t, std::size_t, const pb::Tuple& it) {
    std::lock_guard lock(mutex);
    order.push_back(it[0]);
  });
  ASSERT_EQ(order.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(order[i], static_cast<pb::Value>(i));
  EXPECT_EQ(pipe.stats().linearReplays, 0u);
}

TEST(ReplayLinearTest, PipelineProgramsAreNotMisdetectedAsLinear) {
  const scop::Scop scop = testing::listing1(12);
  CompiledPipeline pipe(compileShared(scop, false), onThreads(4));
  // Listing 1 has two statements with cross-statement dependencies — a
  // real DAG, not a single chain.
  EXPECT_FALSE(pipe.linear());
}

TEST(ReplayLifetimeTest, PipelineOutlivesTheCallersProgramHandle) {
  // The lifetime contract (replay_executor.hpp): worker threads execute raw
  // Task pointers, so CompiledPipeline takes shared ownership. Dropping
  // the caller's handle — or handing the program over by value — must
  // leave every later replay valid (ASan-visible if violated).
  const scop::Scop scop = testing::listing3(10);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);

  auto prog = compileShared(scop, true);
  CompiledPipeline shared(prog, onThreads(4));
  prog.reset(); // pipeline keeps the only reference now
  testing::InterpretedKernel kernel(scop);
  shared.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);

  codegen::TaskProgram byValue = codegen::compilePipeline(scop);
  opt::optimize(byValue);
  CompiledPipeline owned(std::move(byValue), onThreads(4));
  kernel.reset();
  owned.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);

  EXPECT_THROW(
      CompiledPipeline(std::shared_ptr<const codegen::TaskProgram>{}), Error);
}

TEST(ReplaySlotTableTest, PrebuiltSlotTableGivesIdenticalReplays) {
  const scop::Scop scop = testing::listing3(10);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  auto prog = compileShared(scop, true);
  const opt::SlotTable slots = opt::buildSlotTable(*prog);

  CompiledPipeline pipe(prog, slots, onThreads(4));
  testing::InterpretedKernel kernel(scop);
  pipe.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);

  // A table built from a different program must be rejected.
  auto other = compileShared(testing::listing1(12), false);
  EXPECT_THROW(CompiledPipeline(other, slots), Error);
}

TEST(ReplayEdgeCaseTest, EmptyProgramAndZeroBatchesAreNoOps) {
  CompiledPipeline pipe(codegen::TaskProgram{}, onThreads(4));
  int calls = 0;
  pipe.replay([&](std::size_t, const pb::Tuple&) { ++calls; });
  pipe.replayBatches(8, [&](std::size_t, std::size_t, const pb::Tuple&) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);

  CompiledPipeline real(compileShared(testing::listing1(8), true),
                        onThreads(4));
  real.replayBatches(0,
                     [&](std::size_t, std::size_t, const pb::Tuple&) {
                       ++calls;
                     });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(real.stats().batches, 0u);
}

TEST(ReplayEdgeCaseTest, ExceptionsFromTheExecutorPropagateAndClearState) {
  const scop::Scop scop = testing::listing3(10);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  auto prog = compileShared(scop, false);
  CompiledPipeline pipe(prog, onThreads(4));

  EXPECT_THROW(pipe.replay([&](std::size_t, const pb::Tuple&) {
    throw Error("executor failure");
  }),
               Error);

  // The pipeline must stay usable after a failed replay.
  testing::InterpretedKernel kernel(scop);
  pipe.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

TEST(ReplayThroughTest, BackendPathMatchesOnEveryBackend) {
  const scop::Scop scop = testing::listing3(10);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  for (bool optimized : {false, true}) {
    auto prog = compileShared(scop, optimized);
    const opt::SlotTable slots = opt::buildSlotTable(*prog);
    std::vector<std::unique_ptr<TaskingLayer>> layers;
    layers.push_back(makeSerialBackend());
    layers.push_back(makeThreadPoolBackend(4));
    if (auto omp = makeOpenMPBackend())
      layers.push_back(std::move(omp));
    for (auto& layer : layers) {
      testing::InterpretedKernel kernel(scop);
      executeTaskProgram(*prog, slots, *layer, kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected)
          << layer->name() << " opt " << optimized;
    }
  }
}

} // namespace
} // namespace pipoly::tasking
