// Property tests for the task-graph optimizer (src/opt): the optimized
// program must have exactly the same happens-before closure at block
// granularity as the raw lowering, preserve per-statement block order,
// still validate, execute to bit-identical results on every backend
// (including the interned-slot fast path), and be bit-identical to the
// input when the optimizer is disabled. The transitive reduction must
// leave exactly the `in` lists of the dense reference sweep
// (testing/legacy_opt.hpp) on the benchmark programs and on random DAGs.

#include "codegen/task_program.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "scop/builder.hpp"
#include "support/rng.hpp"
#include "tasking/executor.hpp"
#include "tasking/tasking.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/legacy_opt.hpp"
#include "testing/resolve_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace pipoly {
namespace {

/// A happens-before oracle at *block* granularity: original blocks are
/// identified by their position in the raw lowering; a block maps into
/// the optimized program as (owning task, position inside that task).
class BlockClosure {
public:
  explicit BlockClosure(const codegen::TaskProgram& program) {
    const std::size_t n = program.tasks.size();
    words_ = (n + 63) / 64;
    reach_.assign(n * words_, 0);
    for (const codegen::Task& t : program.tasks) {
      std::uint64_t* row = &reach_[t.id * words_];
      for (const codegen::TaskDep& d : t.in) {
        const std::size_t p = *testing::taskWithOut(program, d);
        const std::uint64_t* prow = &reach_[p * words_];
        for (std::size_t w = 0; w < words_; ++w)
          row[w] |= prow[w];
        row[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
  }

  bool reaches(std::size_t from, std::size_t to) const {
    return (reach_[to * words_ + from / 64] >>
            (from % 64)) & 1;
  }

private:
  std::size_t words_;
  std::vector<std::uint64_t> reach_;
};

/// Maps every original block to (optimized task id, position) by looking
/// up the original blockRep among the optimized task's iterations.
std::vector<std::pair<std::size_t, std::size_t>>
mapBlocks(const codegen::TaskProgram& original,
          const codegen::TaskProgram& optimized) {
  std::map<std::pair<std::size_t, std::string>,
           std::pair<std::size_t, std::size_t>>
      where;
  for (const codegen::Task& t : optimized.tasks)
    for (std::size_t k = 0; k < t.iterations.size(); ++k)
      where[{t.stmtIdx, t.iterations[k].toString()}] = {t.id, k};
  std::vector<std::pair<std::size_t, std::size_t>> blockOf;
  blockOf.reserve(original.tasks.size());
  for (const codegen::Task& t : original.tasks) {
    auto it = where.find({t.stmtIdx, t.blockRep.toString()});
    EXPECT_NE(it, where.end()) << "original block lost by the optimizer";
    blockOf.push_back(it == where.end() ? std::make_pair(std::size_t{0},
                                                         std::size_t{0})
                                        : it->second);
  }
  return blockOf;
}

/// The core property: identical happens-before closure at block
/// granularity, identical per-statement iteration order, still valid.
void expectClosurePreserved(const scop::Scop& scop,
                            const codegen::TaskProgram& original,
                            const codegen::TaskProgram& optimized) {
  ASSERT_NO_THROW(optimized.validate(scop));
  ASSERT_TRUE(testing::producersMatchOracle(optimized));

  // Per-statement iteration sequences are untouched (the C emitter and
  // the funcCount chain both rely on this).
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    std::vector<std::string> before, after;
    for (const codegen::Task& t : original.tasks)
      if (t.stmtIdx == s)
        for (const pb::Tuple& it : t.iterations)
          before.push_back(it.toString());
    for (const codegen::Task& t : optimized.tasks)
      if (t.stmtIdx == s)
        for (const pb::Tuple& it : t.iterations)
          after.push_back(it.toString());
    ASSERT_EQ(before, after) << "statement " << s;
  }

  const BlockClosure origClosure(original);
  const BlockClosure optClosure(optimized);
  const auto blockOf = mapBlocks(original, optimized);

  const std::size_t n = original.tasks.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b)
        continue;
      const auto [taskA, posA] = blockOf[a];
      const auto [taskB, posB] = blockOf[b];
      const bool hbOpt = taskA == taskB ? posA < posB
                                        : optClosure.reaches(taskA, taskB);
      ASSERT_EQ(origClosure.reaches(a, b), hbOpt)
          << "blocks " << a << " -> " << b;
    }
  }
}

void expectExecutionMatches(const scop::Scop& scop,
                            const codegen::TaskProgram& optimized) {
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  const opt::SlotTable slots = opt::buildSlotTable(optimized);

  std::vector<std::unique_ptr<tasking::TaskingLayer>> layers;
  layers.push_back(tasking::makeSerialBackend());
  layers.push_back(tasking::makeThreadPoolBackend(3));
  if (auto omp = tasking::makeOpenMPBackend())
    layers.push_back(std::move(omp));
  for (auto& layer : layers) {
    {
      testing::InterpretedKernel kernel(scop);
      tasking::executeTaskProgram(optimized, *layer, kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << layer->name() << " (tag executor)";
    }
    {
      testing::InterpretedKernel kernel(scop);
      tasking::executeTaskProgram(optimized, slots, *layer,
                                  kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << layer->name() << " (slot executor)";
    }
  }
}

void checkProgram(const scop::Scop& scop, const pipeline::DetectOptions& dopt,
                  const opt::OptimizeOptions& oopt) {
  codegen::TaskProgram original = codegen::compilePipeline(scop, dopt);
  codegen::TaskProgram optimized = original;
  opt::optimize(optimized, oopt);
  expectClosurePreserved(scop, original, optimized);
  expectExecutionMatches(scop, optimized);
}

scop::Scop randomScop(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const pb::Value n = 4 + static_cast<pb::Value>(rng.nextBelow(4));
  const std::size_t nests = 2 + rng.nextBelow(3);
  scop::ScopBuilder b("opt_stress");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array("A" + std::to_string(k), {3 * n, 3 * n}));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement("S" + std::to_string(k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0), S.dim(1) + 1});
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0) + 1, S.dim(1)});
    const std::size_t numReads = k == 0 ? 0 : 1 + rng.nextBelow(2);
    for (std::size_t r = 0; r < numReads; ++r) {
      std::size_t src = arrays[rng.nextBelow(k)];
      pb::Value ci = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      pb::Value cj = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      S.read(src, {ci * S.dim(0) + static_cast<pb::Value>(rng.nextBelow(2)),
                   cj * S.dim(1) + static_cast<pb::Value>(rng.nextBelow(2))});
    }
  }
  return b.build();
}

// --- Table-9 suite, both ordering modes -------------------------------

class OptSuiteTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
};

TEST_P(OptSuiteTest, ClosureAndExecutionPreserved) {
  const auto [progIdx, relax] = GetParam();
  const kernels::ProgramSpec& spec =
      kernels::table9Programs()[static_cast<std::size_t>(progIdx)];
  scop::Scop scop = kernels::buildProgram(spec, 8);
  pipeline::DetectOptions dopt;
  dopt.relaxSameNestOrdering = relax;
  checkProgram(scop, dopt, opt::OptimizeOptions{});
}

INSTANTIATE_TEST_SUITE_P(Table9, OptSuiteTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Bool()));

// --- Matmul chains ----------------------------------------------------

class OptMatmulTest
    : public ::testing::TestWithParam<kernels::MatmulVariant> {};

TEST_P(OptMatmulTest, ClosureAndExecutionPreserved) {
  scop::Scop scop = kernels::matmulChain(GetParam(), /*chainLength=*/3,
                                         /*n=*/6);
  checkProgram(scop, pipeline::DetectOptions{}, opt::OptimizeOptions{});
}

INSTANTIATE_TEST_SUITE_P(Chains, OptMatmulTest,
                         ::testing::Values(kernels::MatmulVariant::NMM,
                                           kernels::MatmulVariant::NMMT,
                                           kernels::MatmulVariant::GNMM,
                                           kernels::MatmulVariant::GNMMT));

// --- Random SCoPs, several widths and modes ---------------------------

class OptRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, int>> {
};

TEST_P(OptRandomTest, ClosureAndExecutionPreserved) {
  const auto [seed, relax, width] = GetParam();
  scop::Scop scop = randomScop(seed);
  pipeline::DetectOptions dopt;
  dopt.relaxSameNestOrdering = relax;
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = static_cast<std::size_t>(width);
  checkProgram(scop, dopt, oopt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptRandomTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 19, 42, 101),
                       ::testing::Bool(), ::testing::Values(1, 2, 8)));

// --- Direct unit properties -------------------------------------------

TEST(OptTest, DisabledIsBitIdentical) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 8);
  codegen::TaskProgram original = codegen::compilePipeline(scop);
  codegen::TaskProgram copy = original;
  opt::OptimizeOptions oopt; // every pass off
  oopt.transitiveReduction = false;
  oopt.fusionWidth = 1;
  const opt::OptimizeStats stats = opt::optimize(copy, oopt);
  EXPECT_EQ(copy.toString(), original.toString());
  EXPECT_EQ(stats.edgesRemoved, 0u);
  EXPECT_EQ(stats.tasksFused, 0u);
  EXPECT_EQ(stats.edgesBefore, stats.edgesAfter);
}

TEST(OptTest, FusionWidthOneOnlyReduces) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P7"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  const std::size_t tasksBefore = prog.tasks.size();
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = 1;
  const opt::OptimizeStats stats = opt::optimize(prog, oopt);
  EXPECT_EQ(prog.tasks.size(), tasksBefore);
  EXPECT_EQ(stats.tasksFused, 0u);
  EXPECT_GT(stats.edgesRemoved, 0u);
}

TEST(OptTest, ChainOrderedSuiteRemovesManyEdges) {
  // The acceptance anchor: substantial reduction on the densest
  // chain-ordered programs (see EXPERIMENTS.md E16 for the full suite).
  for (const char* name : {"P5", "P6", "P7"}) {
    scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 16);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    ASSERT_TRUE(prog.chainOrdering);
    const opt::OptimizeStats stats = opt::optimize(prog);
    EXPECT_GE(stats.edgeReductionPercent(), 20.0) << name;
  }
}

TEST(OptTest, SlotTableMatchesProducers) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P4"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  opt::optimize(prog);
  const opt::SlotTable slots = opt::buildSlotTable(prog);
  ASSERT_EQ(slots.numSlots, prog.tasks.size());
  for (const codegen::Task& t : prog.tasks) {
    ASSERT_EQ(slots.inCount(t.id), t.in.size());
    const std::uint32_t* s = slots.inBegin(t.id);
    for (const codegen::TaskDep& d : t.in)
      EXPECT_EQ(*s++, testing::taskWithOut(prog, d));
  }
}

/// Two blocks of one statement, then a block of a second statement that
/// depends on `producer` (0 or 1): the same shape either way.
codegen::TaskProgram twoProducerProgram(std::uint32_t producer) {
  codegen::TaskProgram prog;
  prog.numStatements = 2;
  prog.chainOrdering = false;
  prog.rowTables = {pb::IntTupleSet(pb::Space("S", 1),
                                    {pb::Tuple{0}, pb::Tuple{1}}),
                    pb::IntTupleSet(pb::Space("T", 1), {pb::Tuple{0}})};
  for (std::size_t i = 0; i < 3; ++i) {
    codegen::Task t;
    t.id = i;
    t.stmtIdx = i < 2 ? 0 : 1;
    t.iterations = codegen::IterationRange(prog.rowTables[t.stmtIdx],
                                           i < 2 ? i : 0, i < 2 ? i + 1 : 1);
    t.blockRep = t.iterations.back();
    t.out = codegen::TaskDep{static_cast<int>(t.stmtIdx),
                             codegen::linearizeBlockVector(t.blockRep)};
    prog.tasks.push_back(std::move(t));
  }
  prog.tasks[2].in.push_back(prog.tasks[producer].out);
  testing::fillProducers(prog);
  return prog;
}

TEST(OptTest, SlotTableRejectsAProgramOfTheSameShapeWithOtherProducers) {
  const codegen::TaskProgram fromFirst = twoProducerProgram(0);
  const codegen::TaskProgram fromSecond = twoProducerProgram(1);
  ASSERT_EQ(fromFirst.tasks[2].in[0].producer, 0u);
  ASSERT_EQ(fromSecond.tasks[2].in[0].producer, 1u);
  const opt::SlotTable slots = opt::buildSlotTable(fromFirst);
  EXPECT_TRUE(slots.compatibleWith(fromFirst));
  EXPECT_FALSE(slots.compatibleWith(fromSecond));
  EXPECT_FALSE(opt::buildSlotTable(fromSecond).compatibleWith(fromFirst));
}

TEST(OptTest, SelfOrderingChainSurvives) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P6"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  ASSERT_TRUE(prog.chainOrdering);
  opt::optimize(prog);
  // Every non-first block of a statement still names its predecessor
  // with a selfOrdering dependency (validate checks this too, but keep
  // the intent explicit).
  std::vector<const codegen::Task*> prev(scop.numStatements(), nullptr);
  for (const codegen::Task& t : prog.tasks) {
    if (prev[t.stmtIdx] != nullptr) {
      bool found = false;
      for (const codegen::TaskDep& d : t.in)
        found |= d.selfOrdering && d.idx == prev[t.stmtIdx]->out.idx &&
                 d.tag == prev[t.stmtIdx]->out.tag &&
                 d.producer == prev[t.stmtIdx]->id;
      EXPECT_TRUE(found) << "task " << t.id;
    }
    prev[t.stmtIdx] = &t;
  }
}

// --- Transitive reduction against the dense reference sweep -----------

/// Optimizes a copy of `program` three ways and checks them against the
/// dense sweep: reduction alone leaves the reference's `in` lists and
/// count, and reduction plus fusion equals the reference followed by
/// fusion alone (fusion reads the reduced dependencies the pass hands
/// on).
void expectReductionMatchesLegacy(const codegen::TaskProgram& program,
                                  const std::string& label) {
  codegen::TaskProgram legacy = program;
  const std::size_t legacyRemoved = testing::legacyTransitiveReduce(legacy);

  codegen::TaskProgram reduced = program;
  opt::OptimizeOptions reduceOnly;
  reduceOnly.fusionWidth = 1;
  EXPECT_EQ(opt::optimize(reduced, reduceOnly).edgesRemoved, legacyRemoved)
      << label;
  ASSERT_EQ(reduced.tasks.size(), legacy.tasks.size()) << label;
  for (std::size_t i = 0; i < legacy.tasks.size(); ++i)
    ASSERT_EQ(reduced.tasks[i].in, legacy.tasks[i].in)
        << label << " task " << i;

  codegen::TaskProgram full = program;
  opt::optimize(full);
  opt::OptimizeOptions fuseOnly;
  fuseOnly.transitiveReduction = false;
  opt::optimize(legacy, fuseOnly);
  EXPECT_EQ(full.toString(), legacy.toString()) << label;
}

TEST(OptReductionOracleTest, MatchesTheDenseSweepOnTheBenchmarkPrograms) {
  // Every Table 9 program, Fig. 11 matmul chain and reduction-grid
  // kernel at N = 8, 16 and 48: chain-ordered statements (counted
  // chains from N = 16 on), relaxed reductions' unchained partials and
  // their combines.
  using V = kernels::MatmulVariant;
  for (const pb::Value n : {8, 16, 48}) {
    std::vector<std::pair<std::string, std::function<scop::Scop()>>> programs;
    for (const kernels::ProgramSpec& spec : kernels::table9Programs())
      programs.emplace_back(spec.name, [&spec, n] {
        return kernels::buildProgram(spec, n);
      });
    for (std::size_t len : {2u, 3u, 4u})
      for (V v : {V::NMM, V::NMMT, V::GNMM, V::GNMMT})
        programs.emplace_back(
            kernels::variantName(v) + std::to_string(len),
            [v, len, n] { return kernels::matmulChain(v, len, n); });
    for (const kernels::ReductionKernelSpec& spec :
         kernels::reductionKernels())
      programs.emplace_back(spec.name, [&spec, n] { return spec.build(n); });
    for (const auto& [name, build] : programs) {
      const scop::Scop scop = build();
      expectReductionMatchesLegacy(codegen::compilePipeline(scop),
                                   name + "@" + std::to_string(n));
    }
  }
}

/// A random DAG in TaskProgram form. Each statement is either chained
/// (every block names its predecessor with a selfOrdering dependency,
/// sometimes long enough for a counted chain) or unchained (random
/// earlier blocks of its own, or none), and may end in a combine task
/// over all its blocks. Cross-statement dependencies name random blocks
/// or combines of earlier statements. Out tags are unique per statement
/// but not always ascending.
codegen::TaskProgram randomDag(std::uint64_t seed) {
  SplitMix64 rng(seed);
  codegen::TaskProgram prog;
  prog.numStatements = 1 + rng.nextBelow(5);
  prog.chainOrdering = rng.nextBelow(2) == 0;
  std::vector<std::vector<codegen::TaskDep>> outsOf(prog.numStatements);
  // Row tables: block b runs the row (b), a combine the row (0, 0).
  std::vector<pb::Tuple> rows;
  for (pb::Value b = 0; b < 170; ++b)
    rows.push_back(pb::Tuple{b});
  prog.rowTables = {pb::IntTupleSet(pb::Space("S", 1), rows),
                    pb::IntTupleSet(pb::Space("fold", 2), {pb::Tuple{0, 0}})};
  for (std::size_t s = 0; s < prog.numStatements; ++s) {
    const bool chained = rng.nextBelow(2) == 0;
    const std::size_t blocks =
        1 + rng.nextBelow(rng.nextBelow(3) == 0 ? 150 : 20);
    const bool shuffled = rng.nextBelow(3) == 0;
    std::vector<codegen::TaskDep> own;
    for (std::size_t b = 0; b < blocks; ++b) {
      codegen::Task t;
      t.id = prog.tasks.size();
      t.stmtIdx = s;
      t.blockRep = pb::Tuple{static_cast<pb::Value>(b)};
      t.iterations = codegen::IterationRange(prog.rowTables[0], b, b + 1);
      const std::int64_t tag =
          shuffled ? static_cast<std::int64_t>((b * 7919) % 100003)
                   : static_cast<std::int64_t>(b);
      t.out = codegen::TaskDep{static_cast<int>(s), tag};
      if (chained && b > 0)
        t.in.push_back({own.back().idx, own.back().tag, true});
      if (!chained)
        for (const codegen::TaskDep& earlier : own)
          if (rng.nextBelow(8) == 0)
            t.in.push_back({earlier.idx, earlier.tag, true});
      for (std::size_t src = 0; src < s; ++src)
        for (const codegen::TaskDep& out : outsOf[src])
          if (rng.nextBelow(12) == 0)
            t.in.push_back(out);
      own.push_back(t.out);
      prog.tasks.push_back(std::move(t));
    }
    if (rng.nextBelow(3) == 0) {
      codegen::Task c;
      c.id = prog.tasks.size();
      c.stmtIdx = s;
      c.kind = codegen::TaskKind::ReductionCombine;
      c.blockRep = pb::Tuple{0, 0};
      c.iterations = codegen::IterationRange(prog.rowTables[1], 0, 1);
      c.out = codegen::combineDep(prog.numStatements, s);
      c.in = own;
      outsOf[s].push_back(c.out);
      prog.tasks.push_back(std::move(c));
    } else {
      outsOf[s].insert(outsOf[s].end(), own.begin(), own.end());
    }
  }
  testing::fillProducers(prog);
  return prog;
}

TEST(OptReductionOracleTest, MatchesTheDenseSweepOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed)
    expectReductionMatchesLegacy(randomDag(seed),
                                 "seed " + std::to_string(seed));
}

} // namespace
} // namespace pipoly
