// Tests for the persistent replay executor (tasking::CompiledPipeline):
// bit-identity against executeTaskProgram and the sequential oracle,
// long-run determinism on every engine, batch streaming semantics, the
// linear fast path, the TaskProgram lifetime contract, and the
// calibrated route choice of the default options (the pure pricing and
// choice functions on injected costs, then real calibrating pipelines).

#include "tasking/replay_executor.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/resolve_oracle.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
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

/// The one-dimensional row table {(0), ..., (n - 1)}: row i is the one
/// iteration of a hand-built task.
pb::IntTupleSet countingRows(std::size_t n) {
  std::vector<pb::Tuple> rows;
  for (std::size_t i = 0; i < n; ++i)
    rows.push_back(pb::Tuple{static_cast<pb::Value>(i)});
  return pb::IntTupleSet(pb::Space("S", 1), std::move(rows));
}

/// A hand-built linear chain: task i depends exactly on task i - 1.
codegen::TaskProgram linearChainProgram(std::size_t n) {
  codegen::TaskProgram prog;
  prog.numStatements = 1;
  prog.rowTables = {countingRows(n)};
  for (std::size_t i = 0; i < n; ++i) {
    codegen::Task task;
    task.id = i;
    task.stmtIdx = 0;
    task.blockRep = pb::Tuple{static_cast<pb::Value>(i)};
    task.iterations = codegen::IterationRange(prog.rowTables[0], i, i + 1);
    task.out = {0, static_cast<std::int64_t>(i)};
    if (i > 0)
      task.in = {{0, static_cast<std::int64_t>(i - 1), true}};
    prog.tasks.push_back(std::move(task));
  }
  testing::fillProducers(prog);
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
  EXPECT_EQ(pipe.stats().route, ReplayRoute::InOrder);
  EXPECT_EQ(pipe.stats().reason, RouteReason::LinearChain);
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
  EXPECT_EQ(pipe.stats().route, ReplayRoute::Pool);
  EXPECT_EQ(pipe.stats().reason, RouteReason::Explicit);
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

// ---- The calibrated route choice (ReplayOptions::numThreads = 0) ----

/// One statement whose task i depends on tasks i - 1 and i - 2: a single
/// chain, but not the linear shape replay() short-cuts, so the default
/// options calibrate it.
codegen::TaskProgram braidedChainProgram(std::size_t n) {
  codegen::TaskProgram prog = linearChainProgram(n);
  for (std::size_t i = 2; i < n; ++i)
    prog.tasks[i].in.push_back({0, static_cast<std::int64_t>(i - 2), true});
  testing::fillProducers(prog);
  return prog;
}

/// `stmts` statements of `blocks` independent one-iteration tasks each.
codegen::TaskProgram independentProgram(std::size_t stmts,
                                        std::size_t blocks) {
  codegen::TaskProgram prog;
  prog.numStatements = stmts;
  prog.rowTables = {countingRows(blocks)};
  for (std::size_t s = 0; s < stmts; ++s)
    for (std::size_t b = 0; b < blocks; ++b) {
      codegen::Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = s;
      task.blockRep = pb::Tuple{static_cast<pb::Value>(b)};
      task.iterations = codegen::IterationRange(prog.rowTables[0], b, b + 1);
      task.out = {static_cast<int>(s), static_cast<std::int64_t>(b)};
      prog.tasks.push_back(std::move(task));
    }
  testing::fillProducers(prog);
  return prog;
}

ReplayPrice priced(const codegen::TaskProgram& prog,
                   const std::vector<double>& iterationCost,
                   unsigned workers) {
  return priceReplay(prog, opt::buildSlotTable(prog), iterationCost, workers);
}

TEST(ReplayRouteTest, FineChainGoesInOrder) {
  // 0.1 us bodies in one chain: the simulated makespan is the whole work,
  // so no orchestration cost can make the pool pay, for any batch count.
  ReplayPrice price = priced(braidedChainProgram(64), {0.1e-6}, 4);
  EXPECT_NEAR(price.inOrder, 6.4e-6, 1e-12);
  EXPECT_NEAR(price.makespan, price.inOrder, 1e-12);
  EXPECT_NEAR(price.batchBound, price.inOrder, 1e-12);
  EXPECT_FALSE(poolCanPay(price)); // compute alone: no gain to measure
  price.orchestration = 20e-6;
  for (std::size_t n : {1u, 2u, 32u, 1000u}) {
    const ReplayChoice c = chooseReplayRoute(price, n);
    EXPECT_EQ(c.route, ReplayRoute::InOrder) << n;
    EXPECT_EQ(c.batches, n);
    EXPECT_NEAR(c.inOrder, static_cast<double>(n) * price.inOrder, 1e-12);
  }
}

TEST(ReplayRouteTest, HeavyParallelStagesGoToThePool) {
  // 50 us bodies: four statements of eight independent blocks, and an
  // optimized three-statement pipeline.
  ReplayPrice wide = priced(independentProgram(4, 8), {50e-6, 50e-6, 50e-6,
                                                       50e-6},
                            4);
  EXPECT_NEAR(wide.inOrder, 32 * 50e-6, 1e-12);
  EXPECT_NEAR(wide.makespan, 8 * 50e-6, 1e-12);
  wide.orchestration = 50e-6;
  EXPECT_TRUE(poolCanPay(wide));
  for (std::size_t n : {1u, 8u})
    EXPECT_EQ(chooseReplayRoute(wide, n).route, ReplayRoute::Pool) << n;

  const scop::Scop scop = testing::chain(3, 8);
  auto prog = compileShared(scop, true);
  ReplayPrice pipeline = priced(*prog, {50e-6, 50e-6, 50e-6}, 4);
  pipeline.orchestration = 50e-6;
  EXPECT_LT(pipeline.makespan, 0.5 * pipeline.inOrder);
  for (std::size_t n : {1u, 8u})
    EXPECT_EQ(chooseReplayRoute(pipeline, n).route, ReplayRoute::Pool) << n;
}

TEST(ReplayRouteTest, TheBoundarySitsAtTheMargin) {
  ReplayPrice price;
  price.workers = 4;
  price.inOrder = 1e-3;
  price.makespan = 0.25e-3;
  price.batchBound = 0.25e-3;
  // One batch: the pool wins iff t0 + M < kPoolMargin x W.
  const double edge = kPoolMargin * price.inOrder - price.makespan;
  price.orchestration = edge * (1 - 1e-6);
  EXPECT_EQ(chooseReplayRoute(price, 1).route, ReplayRoute::Pool);
  EXPECT_TRUE(poolCanPay(price));
  price.orchestration = edge * (1 + 1e-6);
  EXPECT_EQ(chooseReplayRoute(price, 1).route, ReplayRoute::InOrder);
  // A stream: per batch the limit is t0 + B against kPoolMargin x W, so
  // with B = M the same t0 loses for every batch count too.
  EXPECT_EQ(chooseReplayRoute(price, 1000).route, ReplayRoute::InOrder);
  EXPECT_FALSE(poolCanPay(price));
  // With a cheaper stream bound a long stream amortizes the first
  // batch's fill and drain, while a single batch still loses.
  price.batchBound = 0.1e-3;
  EXPECT_EQ(chooseReplayRoute(price, 1).route, ReplayRoute::InOrder);
  EXPECT_EQ(chooseReplayRoute(price, 1000).route, ReplayRoute::Pool);
  EXPECT_TRUE(poolCanPay(price));
}

TEST(ReplayRouteTest, TheStreamIsBoundedByItsBatchSerialStatements) {
  const scop::Scop scop = testing::listing1(12);
  auto prog = compileShared(scop, true);
  ReplayPrice price = priced(*prog, {50e-6, 20e-6}, 4);
  price.orchestration = 10e-6;
  EXPECT_GE(price.batchBound, price.inOrder / 4);
  EXPECT_LE(price.batchBound, price.makespan);
  for (std::size_t n : {1u, 2u, 8u, 64u}) {
    const double b = static_cast<double>(n);
    const ReplayChoice c = chooseReplayRoute(price, n);
    // Never better than n batches at the stream bound, never worse than
    // n separate single-batch runs.
    EXPECT_GE(c.pool, b * (price.orchestration + price.batchBound) * (1 - 1e-12))
        << n;
    EXPECT_LE(c.pool, b * (price.orchestration + price.makespan) * (1 + 1e-12))
        << n;
  }
  EXPECT_NEAR(chooseReplayRoute(price, 1).pool,
              price.orchestration + price.makespan, 1e-15);

  // A statement whose blocks form one chain bounds the stream by its
  // whole work: even free orchestration never makes the pool pay.
  const ReplayPrice chain = priced(braidedChainProgram(16), {1e-6}, 4);
  EXPECT_NEAR(chain.batchBound, chain.inOrder, 1e-12);
  EXPECT_EQ(chooseReplayRoute(chain, 1000).route, ReplayRoute::InOrder);
  // Independent blocks of one statement overlap inside a batch: the
  // bound is W / workers, not the statement's work.
  const ReplayPrice wide = priced(independentProgram(1, 8), {1e-6}, 4);
  EXPECT_NEAR(wide.batchBound, wide.inOrder / 4, 1e-12);
}

/// Fingerprint of `runs` back-to-back sequential executions.
std::uint64_t sequentialRuns(const scop::Scop& scop, std::size_t runs) {
  testing::InterpretedKernel kernel(scop);
  for (std::size_t r = 0; r < runs; ++r)
    executeSequential(scop, kernel.executor());
  return kernel.fingerprint();
}

/// Busy-waits `seconds` of wall time: a body whose cost survives
/// sanitizer slow-downs.
void spin(double seconds) {
  const Stopwatch watch;
  while (watch.seconds() < seconds) {
  }
}

TEST(ReplayCalibrationTest, EveryCallMatchesTheSequentialOracle) {
  const scop::Scop scop = testing::listing3(10);
  for (bool optimized : {false, true}) {
    auto prog = compileShared(scop, optimized);

    // First call replay(): it is the calibration batch.
    CompiledPipeline pipe(prog);
    testing::InterpretedKernel kernel(scop);
    for (int rep = 0; rep < 3; ++rep) {
      kernel.reset();
      pipe.replay(kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 1))
          << "rep " << rep << " opt " << optimized;
    }
    kernel.reset();
    pipe.replayBatches(4, [&](std::size_t, std::size_t s, const pb::Tuple& it) {
      kernel.execute(s, it);
    });
    EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 4));

    // First call replayBatches(5): batch 0 calibrates, 1..4 follow it.
    CompiledPipeline streamed(prog);
    kernel.reset();
    std::mutex mutex;
    std::set<std::size_t> batchesSeen;
    streamed.replayBatches(
        5, [&](std::size_t b, std::size_t s, const pb::Tuple& it) {
          {
            std::lock_guard lock(mutex);
            batchesSeen.insert(b);
          }
          kernel.execute(s, it);
        });
    EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 5));
    EXPECT_EQ(batchesSeen, (std::set<std::size_t>{0, 1, 2, 3, 4}));
    kernel.reset();
    streamed.replay(kernel.executor());
    EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 1));

    if (pipe.numThreads() > 1) {
      EXPECT_EQ(pipe.stats().calibrations, 1u);
      EXPECT_EQ(streamed.stats().calibrations, 1u);
    }
  }
}

TEST(ReplayCalibrationTest, FineChainBoundProgramRunsInOrderOnTheCaller) {
  constexpr std::size_t kTasks = 48;
  CompiledPipeline pipe(braidedChainProgram(kTasks));
  if (pipe.numThreads() < 2)
    GTEST_SKIP() << "one hardware thread: the default never calibrates";
  EXPECT_FALSE(pipe.linear());

  const std::thread::id caller = std::this_thread::get_id();
  bool offThread = false;
  std::vector<pb::Value> order;
  auto record = [&](std::size_t, const pb::Tuple& it) {
    if (std::this_thread::get_id() != caller)
      offThread = true;
    order.push_back(it[0]);
  };
  for (int rep = 0; rep < 3; ++rep)
    pipe.replay(record);
  pipe.replayBatches(2, [&](std::size_t, std::size_t s, const pb::Tuple& it) {
    record(s, it);
  });
  EXPECT_FALSE(offThread);
  ASSERT_EQ(order.size(), 5 * kTasks);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<pb::Value>(i % kTasks));

  const CompiledPipeline::Stats& st = pipe.stats();
  EXPECT_EQ(st.calibrations, 1u);
  EXPECT_EQ(st.price.workers, pipe.numThreads());
  EXPECT_GT(st.price.inOrder, 0.0);
  EXPECT_EQ(st.price.orchestration, 0.0); // compute alone showed no gain
  EXPECT_EQ(st.choice.route, ReplayRoute::InOrder);
  EXPECT_EQ(st.choice.batches, 2u);
  EXPECT_EQ(st.route, ReplayRoute::InOrder);
  EXPECT_EQ(st.reason, RouteReason::Calibrated);
}

TEST(ReplayCalibrationTest, HeavyParallelProgramChoosesThePool) {
  // 16 independent 200 us bodies: a 4-worker pool takes about a quarter
  // of the in-order time, far beyond any orchestration cost.
  CompiledPipeline pipe(independentProgram(4, 4));
  if (pipe.numThreads() < 2)
    GTEST_SKIP() << "one hardware thread: the default never calibrates";
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> runs{0}, offThread{0};
  auto heavy = [&](std::size_t, const pb::Tuple&) {
    spin(200e-6);
    if (std::this_thread::get_id() != caller)
      offThread.fetch_add(1);
    runs.fetch_add(1);
  };
  pipe.replay(heavy); // calibration: in order on the caller
  EXPECT_EQ(offThread.load(), 0);
  pipe.replay(heavy);
  EXPECT_EQ(runs.load(), 32);
  EXPECT_EQ(offThread.load(), 16);

  const CompiledPipeline::Stats& st = pipe.stats();
  EXPECT_EQ(st.calibrations, 1u);
  EXPECT_GE(st.price.inOrder, 16 * 200e-6);
  EXPECT_GT(st.price.orchestration, 0.0);
  EXPECT_EQ(st.choice.route, ReplayRoute::Pool);
  EXPECT_LT(st.choice.pool, kPoolMargin * st.choice.inOrder);
  EXPECT_EQ(st.route, ReplayRoute::Pool);
  EXPECT_EQ(st.reason, RouteReason::Calibrated);
}

TEST(ReplayCalibrationTest, ExplicitThreadCountNeverCalibrates) {
  const scop::Scop scop = testing::listing3(10);
  CompiledPipeline pipe(compileShared(scop, true), onThreads(4));
  testing::InterpretedKernel kernel(scop);
  pipe.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 1));
  kernel.reset();
  pipe.replayBatches(3, [&](std::size_t, std::size_t s, const pb::Tuple& it) {
    kernel.execute(s, it);
  });
  EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 3));
  EXPECT_EQ(pipe.stats().calibrations, 0u);
  EXPECT_EQ(pipe.stats().price.workers, 0u);
  EXPECT_EQ(pipe.stats().choice.batches, 0u);
  EXPECT_EQ(pipe.stats().route, ReplayRoute::Pool);
  EXPECT_EQ(pipe.stats().reason, RouteReason::Explicit);
}

TEST(ReplayCalibrationTest, AThrowDuringCalibrationRethrowsAndTheNextCallCalibrates) {
  const scop::Scop scop = testing::listing3(10);
  CompiledPipeline pipe(compileShared(scop, false));
  if (pipe.numThreads() < 2)
    GTEST_SKIP() << "one hardware thread: the default never calibrates";
  EXPECT_THROW(pipe.replay([](std::size_t, const pb::Tuple&) {
    throw Error("executor failure");
  }),
               Error);
  EXPECT_EQ(pipe.stats().calibrations, 0u);
  EXPECT_EQ(pipe.stats().reason, RouteReason::None);

  testing::InterpretedKernel kernel(scop);
  pipe.replay(kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), sequentialRuns(scop, 1));
  EXPECT_EQ(pipe.stats().calibrations, 1u);
}

TEST(ReplayCalibrationTest, TheRouteIsExplainedInTheTrace) {
  CompiledPipeline pipe(braidedChainProgram(32));
  if (pipe.numThreads() < 2)
    GTEST_SKIP() << "one hardware thread: the default never calibrates";
  trace::Session session;
  session.start();
  auto nop = [](std::size_t, const pb::Tuple&) {};
  pipe.replay(nop);
  pipe.replay(nop); // same batch count: the cached choice, no new instant
  pipe.replayBatches(4, [](std::size_t, std::size_t, const pb::Tuple&) {});
  session.stop();

  const trace::MetricsSummary m = trace::summarizeTrace(session.trace());
  auto spanCount = [&](const std::string& name) {
    for (const trace::SpanStat& s : m.spans)
      if (s.name == name)
        return s.count;
    return std::uint64_t{0};
  };
  auto instantCount = [&](const std::string& name) {
    for (const trace::InstantStat& s : m.instants)
      if (s.name == name)
        return s.count;
    return std::uint64_t{0};
  };
  auto counter = [&](const std::string& name) -> const trace::CounterStat* {
    for (const trace::CounterStat& s : m.counters)
      if (s.name == name)
        return &s;
    return nullptr;
  };
  EXPECT_EQ(spanCount("replay.calibrate"), 1u);
  EXPECT_EQ(instantCount("replay.route.in_order"), 2u); // 1 and 4 batches
  EXPECT_EQ(instantCount("replay.route.pool"), 0u);
  const CompiledPipeline::Stats& st = pipe.stats();
  for (const char* name :
       {"replay.route.batches", "replay.route.in_order_s",
        "replay.route.orchestration_s", "replay.route.simulated_s",
        "replay.route.pool_s"}) {
    const trace::CounterStat* c = counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->count, 2u) << name;
  }
  EXPECT_EQ(counter("replay.route.batches")->last, 4.0);
  EXPECT_DOUBLE_EQ(counter("replay.route.in_order_s")->last, st.choice.inOrder);
  EXPECT_DOUBLE_EQ(counter("replay.route.pool_s")->last, st.choice.pool);
  EXPECT_DOUBLE_EQ(counter("replay.route.simulated_s")->last,
                   st.price.makespan);
}

} // namespace
} // namespace pipoly::tasking
