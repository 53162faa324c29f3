// Every execution route walks task iterations as [begin, end) row
// ranges. Each must reproduce the fingerprint of the explicit oracle
// program (testing/legacy_lowering.hpp) run in creation order, before and
// after optimize, on the interval corpus at small sizes.

#include "codegen/task_program.hpp"
#include "kernels/reduction_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/detect.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "testing/interval_corpus.hpp"
#include "testing/legacy_lowering.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pipoly {
namespace {

/// The task layers every program runs on, created once per test.
struct Layers {
  std::unique_ptr<tasking::TaskingLayer> pool = tasking::makeThreadPoolBackend(2);
  std::unique_ptr<tasking::TaskingLayer> omp = tasking::makeOpenMPBackend();
};

void expectRoutesMatchOracle(const scop::Scop& scop,
                             const pipeline::DetectOptions& options,
                             Layers& layers, const std::string& what) {
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop, options);
  const testing::LegacyProgram oracle =
      testing::legacyLower(scop, info, options);
  for (const bool optimized : {false, true}) {
    auto prog = std::make_shared<codegen::TaskProgram>(
        codegen::compilePipeline(scop, options));
    // The oracle's lists, in creation order, on a runner whose partial
    // slots follow the unoptimized program's blocks.
    kernels::ReductionRunner expected(scop, *prog);
    for (const testing::LegacyTask& t : oracle.tasks)
      for (const pb::Tuple& it : t.iterations)
        expected.execute(t.stmtIdx, it);
    kernels::ReductionRunner sequential(scop);
    tasking::executeSequential(scop, sequential.executor());
    ASSERT_EQ(expected.fingerprint(), sequential.fingerprint()) << what;
    if (optimized)
      opt::optimize(*prog);
    std::string where = what;
    if (optimized)
      where += " opt";
    const std::shared_ptr<const codegen::TaskProgram> shared = prog;

    const auto check = [&](const char* route, auto&& run) {
      kernels::ReductionRunner runner(scop, *shared);
      run(runner.executor());
      EXPECT_EQ(runner.fingerprint(), expected.fingerprint())
          << where << " " << route;
    };
    check("pool", [&](const tasking::StatementExecutor& exec) {
      tasking::executeTaskProgram(*shared, *layers.pool, exec);
    });
    if (layers.omp)
      check("openmp", [&](const tasking::StatementExecutor& exec) {
        tasking::executeTaskProgram(*shared, *layers.omp, exec);
      });
    for (const unsigned threads : {1u, 2u}) {
      tasking::ReplayOptions replayOptions;
      replayOptions.numThreads = threads;
      tasking::CompiledPipeline replay(shared, replayOptions);
      check(threads == 1 ? "replay in order" : "replay pool",
            [&](const tasking::StatementExecutor& exec) { replay.replay(exec); });
    }
    tasking::ChannelOptions channelOptions;
    channelOptions.numWorkers = 2;
    tasking::ChannelPipeline channel(shared, channelOptions);
    check("channel",
          [&](const tasking::StatementExecutor& exec) { channel.replay(exec); });
  }
}

void expectCorpusRoutes(const std::vector<testing::CorpusProgram>& corpus) {
  Layers layers;
  for (const testing::CorpusProgram& p : corpus) {
    const scop::Scop scop = p.build();
    for (const testing::CorpusSetting& s :
         testing::intervalSettings(p.reduction))
      expectRoutesMatchOracle(scop, s.options, layers, p.name + " " + s.name);
  }
}

std::vector<testing::CorpusProgram> smallCorpus(std::size_t first,
                                                std::size_t count) {
  std::vector<testing::CorpusProgram> all =
      testing::intervalCorpus({8}, 4, 8, 6);
  return {all.begin() + static_cast<long>(first),
          all.begin() + static_cast<long>(first + count)};
}

TEST(IntervalRoutesTest, Table9) { expectCorpusRoutes(smallCorpus(0, 10)); }

TEST(IntervalRoutesTest, MatmulChains) {
  expectCorpusRoutes(smallCorpus(10, 12));
}

TEST(IntervalRoutesTest, ReductionGridAndKernelChains) {
  expectCorpusRoutes(smallCorpus(22, 8));
}

TEST(IntervalRoutesTest, SeededFuzz) {
  Layers layers;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    bool nonInjective = false;
    const scop::Scop scop = testing::randomIntervalScop(seed, &nonInjective);
    for (testing::CorpusSetting s : testing::intervalSettings(true)) {
      s.options.allowNonInjectiveWrites = nonInjective;
      expectRoutesMatchOracle(scop, s.options, layers,
                              "seed " + std::to_string(seed) + " " + s.name);
    }
  }
}

} // namespace
} // namespace pipoly
