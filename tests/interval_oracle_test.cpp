// Blocks as lexicographic intervals against the explicit oracle
// (testing/legacy_lowering.hpp): every task's [begin, end) rows must list
// exactly the iterations the explicit Σ_S^-1 gives its block, the task
// programs must print byte-identically, and every producer id lowering
// records (and optimize keeps in step) must equal the (idx, tag)
// resolution of testing/resolve_oracle.hpp, before and after optimize.

#include "codegen/task_program.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/detect.hpp"
#include "testing/interval_corpus.hpp"
#include "testing/legacy_lowering.hpp"
#include "testing/resolve_oracle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pipoly {
namespace {

std::vector<pb::Tuple> rowsOf(const codegen::IterationRange& range) {
  std::vector<pb::Tuple> rows;
  for (const pb::TupleView it : range)
    rows.emplace_back(it);
  return rows;
}

void expectMatchesOracle(const scop::Scop& scop,
                         const pipeline::DetectOptions& options,
                         const std::string& what) {
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop, options);
  const testing::LegacyProgram oracle =
      testing::legacyLower(scop, info, options);
  const codegen::TaskProgram prog = codegen::compilePipeline(scop, options);
  ASSERT_EQ(prog.toString(), oracle.toString()) << what;
  ASSERT_EQ(prog.tasks.size(), oracle.tasks.size()) << what;
  for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
    ASSERT_EQ(rowsOf(prog.tasks[i].iterations), oracle.tasks[i].iterations)
        << what << " task " << i;
    ASSERT_EQ(prog.tasks[i].out, oracle.tasks[i].out) << what << " task " << i;
    ASSERT_EQ(prog.tasks[i].in, oracle.tasks[i].in) << what << " task " << i;
  }

  // Fusion extends a range over its chain successors: each optimized task
  // lists the oracle's iterations of the run of tasks it absorbed, which
  // ends at the task with its representative.
  codegen::TaskProgram optimized = prog;
  opt::optimize(optimized);
  ASSERT_NO_THROW(optimized.validate(scop)) << what;
  ASSERT_TRUE(testing::producersMatchOracle(optimized)) << what;
  std::size_t k = 0;
  for (const codegen::Task& t : optimized.tasks) {
    std::vector<pb::Tuple> expected;
    bool last = false;
    while (!last && k < oracle.tasks.size()) {
      const testing::LegacyTask& o = oracle.tasks[k++];
      expected.insert(expected.end(), o.iterations.begin(),
                      o.iterations.end());
      last = o.stmtIdx == t.stmtIdx && o.blockRep == t.blockRep;
    }
    ASSERT_TRUE(last) << what << " optimized task " << t.id;
    ASSERT_EQ(rowsOf(t.iterations), expected)
        << what << " optimized task " << t.id;
  }
  EXPECT_EQ(k, oracle.tasks.size()) << what;
}

void expectCorpusMatches(const std::vector<testing::CorpusProgram>& corpus) {
  for (const testing::CorpusProgram& p : corpus) {
    const scop::Scop scop = p.build();
    for (const testing::CorpusSetting& s :
         testing::intervalSettings(p.reduction))
      expectMatchesOracle(scop, s.options, p.name + " " + s.name);
  }
}

std::vector<testing::CorpusProgram> only(std::vector<testing::CorpusProgram> all,
                                         std::size_t first, std::size_t count) {
  return {all.begin() + static_cast<long>(first),
          all.begin() + static_cast<long>(first + count)};
}

// intervalCorpus lists Table 9 first (10 per size), then 12 matmul
// chains, 4 reduction kernels and 4 kernel chains.
TEST(IntervalOracleTest, Table9AtN8And16) {
  expectCorpusMatches(only(testing::intervalCorpus({8, 16}, 4, 8, 6), 0, 20));
}

TEST(IntervalOracleTest, Table9AtN48) {
  expectCorpusMatches(only(testing::intervalCorpus({48}, 4, 8, 6), 0, 10));
}

TEST(IntervalOracleTest, MatmulChains) {
  expectCorpusMatches(only(testing::intervalCorpus({}, 8, 8, 6), 0, 12));
}

TEST(IntervalOracleTest, ReductionGrid) {
  expectCorpusMatches(only(testing::intervalCorpus({}, 4, 48, 6), 12, 4));
}

TEST(IntervalOracleTest, KernelChains) {
  expectCorpusMatches(only(testing::intervalCorpus({}, 4, 8, 12), 16, 4));
}

TEST(IntervalOracleTest, SeededFuzz) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    bool nonInjective = false;
    const scop::Scop scop = testing::randomIntervalScop(seed, &nonInjective);
    for (testing::CorpusSetting s : testing::intervalSettings(true)) {
      s.options.allowNonInjectiveWrites = nonInjective;
      expectMatchesOracle(scop, s.options,
                          "seed " + std::to_string(seed) + " " + s.name);
    }
  }
}

} // namespace
} // namespace pipoly
