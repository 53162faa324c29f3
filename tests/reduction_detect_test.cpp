// The differential harness for the reduction-aware detection route
// (pipeline/reduction.hpp):
//
//  * reductionMode=Off is bit-identical to Auto on every reduction-free
//    program (all of Table 9 plus a 220-iteration randomized corpus),
//    and ignores declared operators entirely (a scop with ops and its
//    op-free twin produce bit-identical Off results).
//  * Auto only *adds* parallelism: a relaxed statement keeps at least as
//    many blocks as under Off, runs them without self edges, and every
//    statement that is neither relaxed nor downstream of a relaxed
//    source keeps its Off result bit for bit.
//  * The reduction kernel grid splits each accumulation nest into >1
//    partial block plus one combine task, and executing the lowered
//    programs on the three TaskingLayer backends (serial / threadpool /
//    OpenMP) and the channel pipeline at 1, 2 and 4 workers, with and
//    without the task-graph optimizer, reproduces the
//    sequential oracle fingerprint exactly — integer payloads, no
//    tolerance. Replay and batch streaming stay bit-identical over long
//    runs.

#include "ast/ast.hpp"
#include "codegen/task_program.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/reduction_runner.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/reduction.hpp"
#include "schedule/build.hpp"
#include "scop/builder.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "tasking/tasking.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pipoly;
using pipeline::DetectOptions;
using RMode = DetectOptions::ReductionMode;

DetectOptions optionsFor(RMode mode, bool nonInjective = false) {
  DetectOptions opt;
  opt.reductionMode = mode;
  opt.allowNonInjectiveWrites = nonInjective;
  return opt;
}

/// Full bit-identity over the semantic fields of PipelineInfo, including
/// the reduction-route additions (viaCombine, reduction).
void expectInfoEqual(const pipeline::PipelineInfo& a,
                     const pipeline::PipelineInfo& b, const std::string& what) {
  ASSERT_EQ(a.maps.size(), b.maps.size()) << what;
  for (std::size_t i = 0; i < a.maps.size(); ++i) {
    EXPECT_EQ(a.maps[i].srcIdx, b.maps[i].srcIdx) << what << " map " << i;
    EXPECT_EQ(a.maps[i].tgtIdx, b.maps[i].tgtIdx) << what << " map " << i;
    EXPECT_TRUE(a.maps[i].map == b.maps[i].map) << what << " map " << i;
  }
  ASSERT_EQ(a.statements.size(), b.statements.size()) << what;
  for (std::size_t s = 0; s < a.statements.size(); ++s) {
    const pipeline::StatementPipelineInfo& x = a.statements[s];
    const pipeline::StatementPipelineInfo& y = b.statements[s];
    EXPECT_EQ(x.blockStarts, y.blockStarts) << what << " S" << s;
    EXPECT_TRUE(x.blockReps == y.blockReps) << what << " S" << s;
    EXPECT_EQ(x.chainOrdering, y.chainOrdering) << what << " S" << s;
    EXPECT_TRUE(x.selfEdges == y.selfEdges) << what << " S" << s;
    EXPECT_EQ(x.reduction.relaxed, y.reduction.relaxed) << what << " S" << s;
    ASSERT_EQ(x.inRequirements.size(), y.inRequirements.size())
        << what << " S" << s;
    for (std::size_t r = 0; r < x.inRequirements.size(); ++r) {
      EXPECT_EQ(x.inRequirements[r].srcStmtIdx, y.inRequirements[r].srcStmtIdx)
          << what << " S" << s << " req " << r;
      EXPECT_TRUE(x.inRequirements[r].map == y.inRequirements[r].map)
          << what << " S" << s << " req " << r;
      EXPECT_EQ(x.inRequirements[r].viaCombine, y.inRequirements[r].viaCombine)
          << what << " S" << s << " req " << r;
    }
  }
}

/// The routes must partition the candidates (now including Reduction).
void expectStatsConsistent(const pipeline::DetectStats& st,
                           const std::string& what) {
  EXPECT_EQ(st.parametricPairs + st.symbolicPairs + st.explicitPairs +
                st.independentPairs + st.reductionPairs,
            st.candidatePairs)
      << what;
}

codegen::TaskProgram lowerProgram(const scop::Scop& scop,
                                  const pipeline::PipelineInfo& info) {
  const std::unique_ptr<sched::ScheduleNode> tree =
      sched::buildPipelineSchedule(scop, info);
  const ast::Ast lowered = ast::buildAst(scop, *tree);
  codegen::TaskProgram prog = codegen::lowerToTasks(scop, lowered);
  prog.validate(scop);
  return prog;
}

// --- Randomized corpus ------------------------------------------------

/// A random 2-4 nest program in the shape of the parametric harness
/// (identity writes, mostly-separable cross reads), where one nest may be
/// turned into an accumulation `acc[f(i)] (⊕)= g(earlier reads)`. Builds
/// the scop twice from the same draw: `plain` carries the accumulator
/// write+read WITHOUT a declared operator, `reduced` declares it — the
/// accesses are bit-identical, so reductionMode=Off must not tell them
/// apart.
struct CorpusDraw {
  scop::Scop plain;
  scop::Scop reduced;
  std::optional<std::size_t> reductionStmt; // nest that accumulates
};

CorpusDraw randomCorpusScop(SplitMix64& rng, std::uint64_t tag) {
  const std::size_t nests = 2 + rng.nextBelow(3);
  const std::size_t depth = 1 + rng.nextBelow(2);

  struct ReadSpec {
    std::size_t src;
    std::vector<pb::Value> c, o;
  };
  struct StmtSpec {
    std::vector<pb::Value> lo, hi;
    std::vector<ReadSpec> reads;
    bool readsAccumulator = false;
  };

  std::vector<StmtSpec> stmts(nests);
  for (std::size_t k = 0; k < nests; ++k) {
    for (std::size_t d = 0; d < depth; ++d) {
      const pb::Value lo = static_cast<pb::Value>(rng.nextBelow(3));
      stmts[k].lo.push_back(lo);
      stmts[k].hi.push_back(lo + 2 +
                            static_cast<pb::Value>(rng.nextBelow(15)));
    }
    for (std::size_t s = 0; s < k; ++s) {
      if (rng.nextBelow(10) >= 6)
        continue;
      ReadSpec r;
      r.src = s;
      for (std::size_t d = 0; d < depth; ++d) {
        const pb::Value c = 1 + static_cast<pb::Value>(rng.nextBelow(2));
        const pb::Value minOffset = -c * stmts[k].lo[d];
        const pb::Value o =
            minOffset + static_cast<pb::Value>(rng.nextBelow(
                            static_cast<std::uint64_t>(3 - minOffset + 1)));
        r.c.push_back(c);
        r.o.push_back(o);
      }
      stmts[k].reads.push_back(std::move(r));
    }
  }

  // Pick the accumulation nest: any nest, ~2/3 of the draws. Its write
  // collapses to acc[dim0] (depth 2) or acc[0] (depth 1) — non-injective
  // over a domain with >1 point per accumulator cell.
  std::optional<std::size_t> redStmt;
  if (rng.nextBelow(3) != 0) {
    redStmt = rng.nextBelow(nests);
    // A depth-1 nest writing acc[0] needs >= 2 iterations for a
    // self-dependence; the generator guarantees hi - lo >= 2.
    // Downstream nests read acc[lo0] (always written) half the time so
    // combine edges actually occur.
    for (std::size_t k = *redStmt + 1; k < nests; ++k)
      if (rng.nextBelow(2) == 0)
        stmts[k].readsAccumulator = true;
  }
  const std::array<scop::ReductionOp, 5> ops = {
      scop::ReductionOp::Add, scop::ReductionOp::Mul, scop::ReductionOp::Xor,
      scop::ReductionOp::Min, scop::ReductionOp::Max};
  const scop::ReductionOp op = ops[rng.nextBelow(ops.size())];

  // Array shapes large enough for every reader.
  std::vector<std::vector<pb::Value>> shapes(nests);
  for (std::size_t k = 0; k < nests; ++k)
    shapes[k] = stmts[k].hi;
  for (std::size_t k = 0; k < nests; ++k)
    for (const ReadSpec& r : stmts[k].reads)
      for (std::size_t d = 0; d < depth; ++d) {
        const pb::Value maxSub = r.c[d] * (stmts[k].hi[d] - 1) + r.o[d];
        shapes[r.src][d] = std::max(shapes[r.src][d], maxSub + 1);
      }

  const auto build = [&](bool declareOp) {
    scop::ScopBuilder b(indexedName("redrand", tag));
    std::vector<std::size_t> arrays;
    for (std::size_t k = 0; k < nests; ++k) {
      if (redStmt && k == *redStmt)
        arrays.push_back(b.array("acc", {shapes[k][0]}));
      else
        arrays.push_back(b.array(indexedName("A", k), shapes[k]));
    }
    for (std::size_t k = 0; k < nests; ++k) {
      auto S = b.statement(indexedName("S", k), depth);
      std::vector<pb::AffineExpr> identity;
      for (std::size_t d = 0; d < depth; ++d) {
        S.bound(d, stmts[k].lo[d], stmts[k].hi[d]);
        identity.push_back(S.dim(d));
      }
      if (redStmt && k == *redStmt) {
        const std::vector<pb::AffineExpr> accSubs = {
            depth == 1 ? S.constant(0) : S.dim(0)};
        S.write(arrays[k], accSubs);
        S.read(arrays[k], accSubs);
        if (declareOp)
          S.reductionOp(op);
      } else {
        S.write(arrays[k], identity);
      }
      for (const ReadSpec& r : stmts[k].reads) {
        if (redStmt && r.src == *redStmt)
          continue; // accumulator cross reads handled below
        std::vector<pb::AffineExpr> subs;
        for (std::size_t d = 0; d < depth; ++d)
          subs.push_back(r.c[d] * S.dim(d) + r.o[d]);
        S.read(arrays[r.src], subs);
      }
      if (stmts[k].readsAccumulator)
        S.read(arrays[*redStmt], {S.constant(stmts[*redStmt].lo[0])});
    }
    return b.build();
  };
  return CorpusDraw{build(false), build(true), redStmt};
}

// --- Off bit-identity -------------------------------------------------

TEST(ReductionDetect, OffMatchesAutoOnTable9) {
  // No Table-9 program declares a reduction operator: the classifier must
  // relax nothing and Auto must reproduce Off bit for bit.
  std::size_t built = 0;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    for (pb::Value n : {4, 8, 16}) {
      std::optional<scop::Scop> scop;
      try {
        scop.emplace(kernels::buildProgram(spec, n));
      } catch (const pipoly::Error&) {
        continue;
      }
      ++built;
      const std::string what = spec.name + " N=" + std::to_string(n);
      const pipeline::PipelineInfo off =
          pipeline::detectPipeline(*scop, optionsFor(RMode::Off));
      const pipeline::PipelineInfo aut =
          pipeline::detectPipeline(*scop, optionsFor(RMode::Auto));
      expectInfoEqual(off, aut, what);
      EXPECT_EQ(aut.stats.reductionStatements, 0u) << what;
      EXPECT_EQ(aut.stats.reductionPairs, 0u) << what;
      expectStatsConsistent(aut.stats, what);
    }
  }
  EXPECT_GE(built, 25u);
}

TEST(ReductionDetect, RandomizedDifferentialHarness) {
  SplitMix64 rng(0x51ce7a9b3d24f1c8ULL);
  std::size_t relaxedTotal = 0, combineEdges = 0;
  for (std::uint64_t iter = 0; iter < 220; ++iter) {
    const CorpusDraw draw = randomCorpusScop(rng, iter);
    const std::string what = "iter " + std::to_string(iter);

    // Accumulator writes are non-injective; detection needs the §7 knob
    // in every mode, exactly like the pre-reduction route did.
    const pipeline::PipelineInfo plainOff = pipeline::detectPipeline(
        draw.plain, optionsFor(RMode::Off, /*nonInjective=*/true));
    const pipeline::PipelineInfo reducedOff = pipeline::detectPipeline(
        draw.reduced, optionsFor(RMode::Off, /*nonInjective=*/true));
    // Off ignores declared operators entirely.
    expectInfoEqual(plainOff, reducedOff, what + " off op-blind");

    // Auto on the op-free twin changes nothing either.
    expectInfoEqual(plainOff,
                    pipeline::detectPipeline(
                        draw.plain, optionsFor(RMode::Auto, true)),
                    what + " plain auto");

    const pipeline::PipelineInfo aut = pipeline::detectPipeline(
        draw.reduced, optionsFor(RMode::Auto, /*nonInjective=*/true));
    expectStatsConsistent(aut.stats, what);

    if (!draw.reductionStmt) {
      expectInfoEqual(plainOff, aut, what + " no-reduction auto");
      EXPECT_EQ(aut.stats.reductionStatements, 0u) << what;
      continue;
    }

    const std::size_t rs = *draw.reductionStmt;
    const pipeline::ReductionInfo cls =
        pipeline::classifyReduction(draw.reduced, rs);
    ASSERT_TRUE(aut.statements.size() == plainOff.statements.size());
    EXPECT_EQ(aut.statements[rs].reduction.relaxed, cls.relaxed) << what;
    if (!cls.relaxed) {
      // Classifier rejected (e.g. an accumulation with no second
      // iteration hitting the same cell): Auto falls back to Off bits.
      expectInfoEqual(plainOff, aut, what + " rejected auto");
      continue;
    }
    ++relaxedTotal;
    EXPECT_EQ(aut.stats.reductionStatements, 1u) << what;

    // Adds-parallelism: the relaxed statement keeps at least as many
    // blocks, runs them with no self edges and no chain ordering.
    EXPECT_GE(aut.statements[rs].blockReps.size(),
              plainOff.statements[rs].blockReps.size())
        << what;
    EXPECT_FALSE(aut.statements[rs].chainOrdering) << what;
    EXPECT_TRUE(aut.statements[rs].selfEdges.empty()) << what;

    // Statements neither relaxed nor downstream of the relaxed source
    // keep their Off result bit for bit.
    for (std::size_t s = 0; s < aut.statements.size(); ++s) {
      if (s == rs)
        continue;
      bool viaCombine = false;
      for (const pipeline::InRequirement& req : aut.statements[s].inRequirements)
        viaCombine = viaCombine || req.viaCombine;
      if (viaCombine) {
        ++combineEdges;
        continue;
      }
      const pipeline::StatementPipelineInfo& x = plainOff.statements[s];
      const pipeline::StatementPipelineInfo& y = aut.statements[s];
      EXPECT_EQ(x.blockStarts, y.blockStarts) << what << " S" << s;
      EXPECT_TRUE(x.blockReps == y.blockReps) << what << " S" << s;
      EXPECT_TRUE(x.selfEdges == y.selfEdges) << what << " S" << s;
      EXPECT_EQ(x.chainOrdering, y.chainOrdering) << what << " S" << s;
    }

    // Every relaxed dependence is a genuine self-dependence of the
    // statement (the subset legality fact, exhaustively re-checked by
    // the fuzz suite).
    const pb::IntMap relaxed =
        pipeline::relaxedSelfDependences(draw.reduced, rs);
    const pb::IntMap all = scop::selfDependences(draw.reduced, rs);
    for (const auto& [i, j] : relaxed.pairs())
      EXPECT_TRUE(all.contains(i, j)) << what;

    // Lowered programs validate, with exactly one combine task.
    const codegen::TaskProgram prog = lowerProgram(draw.reduced, aut);
    std::size_t combines = 0;
    for (const codegen::Task& t : prog.tasks)
      combines += t.kind == codegen::TaskKind::ReductionCombine ? 1 : 0;
    EXPECT_EQ(combines, aut.statements[rs].blockReps.empty() ? 0u : 1u)
        << what;
  }
  // The corpus must genuinely exercise the route.
  EXPECT_GT(relaxedTotal, 80u);
  EXPECT_GT(combineEdges, 30u);
}

// --- The reduction kernel grid ----------------------------------------

TEST(ReductionDetect, GridKernelsSplitAndCombine) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const pb::Value n = 16;
    const scop::Scop scop = spec.build(n);
    const pipeline::PipelineInfo aut =
        pipeline::detectPipeline(scop, optionsFor(RMode::Auto));
    EXPECT_EQ(aut.stats.reductionStatements, 1u) << spec.name;
    const pipeline::StatementPipelineInfo& st =
        aut.statements[spec.reductionStmt];
    ASSERT_TRUE(st.reduction.relaxed) << spec.name;
    EXPECT_EQ(st.reduction.op, spec.op) << spec.name;
    // The acceptance bar: every accumulation nest splits into more than
    // one parallel partial block.
    EXPECT_GT(st.blockReps.size(), 1u) << spec.name;
    EXPECT_TRUE(st.selfEdges.empty()) << spec.name;

    const codegen::TaskProgram prog = lowerProgram(scop, aut);
    std::size_t combines = 0, partialBlocks = 0;
    for (const codegen::Task& t : prog.tasks) {
      if (t.kind == codegen::TaskKind::ReductionCombine) {
        ++combines;
        EXPECT_EQ(t.stmtIdx, spec.reductionStmt) << spec.name;
        EXPECT_EQ(t.iterations.size(), st.blockReps.size()) << spec.name;
      } else if (t.stmtIdx == spec.reductionStmt) {
        ++partialBlocks;
      }
    }
    EXPECT_EQ(combines, 1u) << spec.name;
    EXPECT_EQ(partialBlocks, st.blockReps.size()) << spec.name;

    // The consumer depends on the combine tag, not on any partial.
    const codegen::TaskDep combineTag =
        codegen::combineDep(prog.numStatements, spec.reductionStmt);
    bool consumerSeen = false;
    for (const codegen::Task& t : prog.tasks)
      for (const codegen::TaskDep& d : t.in)
        if (d.idx == combineTag.idx && d.tag == combineTag.tag) {
          consumerSeen = true;
          EXPECT_GT(t.stmtIdx, spec.reductionStmt) << spec.name;
        }
    EXPECT_TRUE(consumerSeen) << spec.name;
  }
}

// --- Kernel-oracle execution coverage ---------------------------------

std::uint64_t sequentialOracle(const scop::Scop& scop,
                               std::size_t repetitions = 1) {
  kernels::ReductionRunner oracle(scop);
  for (std::size_t r = 0; r < repetitions; ++r)
    tasking::executeSequential(scop, oracle.executor());
  return oracle.fingerprint();
}

std::vector<std::pair<std::string, std::unique_ptr<tasking::TaskingLayer>>>
allBackends() {
  std::vector<std::pair<std::string, std::unique_ptr<tasking::TaskingLayer>>>
      backends;
  backends.emplace_back("serial", tasking::makeSerialBackend());
  backends.emplace_back("threadpool", tasking::makeThreadPoolBackend(4));
  if (auto omp = tasking::makeOpenMPBackend())
    backends.emplace_back("openmp", std::move(omp));
  return backends;
}

TEST(ReductionExecution, KernelOracleOnAllBackends) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const pb::Value n = 16;
    const scop::Scop scop = spec.build(n);
    const std::uint64_t expected = sequentialOracle(scop);

    for (RMode mode : {RMode::Auto, RMode::Off}) {
      const pipeline::PipelineInfo info = pipeline::detectPipeline(
          scop, optionsFor(mode, /*nonInjective=*/mode == RMode::Off));
      codegen::TaskProgram prog = lowerProgram(scop, info);
      for (const bool optimize : {false, true}) {
        if (optimize) {
          opt::optimize(prog);
          prog.validate(scop);
        }
        for (auto& [name, layer] : allBackends()) {
          kernels::ReductionRunner runner(scop, prog);
          tasking::executeTaskProgram(prog, *layer, runner.executor());
          EXPECT_EQ(runner.fingerprint(), expected)
              << spec.name << " mode=" << (mode == RMode::Auto ? "auto" : "off")
              << (optimize ? " optimized" : "") << " backend=" << name;
        }
        // The channel route: one ChannelPipeline replay per worker count.
        for (unsigned workers : {1u, 2u, 4u}) {
          tasking::ChannelOptions options;
          options.numWorkers = workers;
          tasking::ChannelPipeline pipe(prog, options);
          kernels::ReductionRunner runner(scop, prog);
          pipe.replay(runner.executor());
          EXPECT_EQ(runner.fingerprint(), expected)
              << spec.name << " mode=" << (mode == RMode::Auto ? "auto" : "off")
              << (optimize ? " optimized" : "")
              << " backend=channel workers=" << workers;
        }
      }
    }
  }
}

TEST(ReductionExecution, ReplayBitIdentityOverThousandRuns) {
  // One compile, 1000 replays with shared state: the accumulators keep
  // evolving (each replay folds fresh contributions computed from the
  // arrays the previous replay left behind), and the result must equal
  // 1000 back-to-back sequential runs exactly. Four workers keep the
  // pool covered whatever the calibrated default (0) picks.
  const scop::Scop scop = kernels::dotProductChain(8);
  const std::uint64_t expected = sequentialOracle(scop, 1000);

  const pipeline::PipelineInfo info =
      pipeline::detectPipeline(scop, optionsFor(RMode::Auto));
  codegen::TaskProgram prog = lowerProgram(scop, info);
  auto shared = std::make_shared<const codegen::TaskProgram>(std::move(prog));
  for (unsigned threads : {0u, 4u}) {
    tasking::CompiledPipeline pipe(shared, tasking::ReplayOptions{threads});
    kernels::ReductionRunner runner(scop, *shared);
    for (std::size_t r = 0; r < 1000; ++r)
      pipe.replay(runner.executor());
    EXPECT_EQ(runner.fingerprint(), expected) << threads << " threads";
    EXPECT_EQ(pipe.stats().replays, 1000u);
  }
}

TEST(ReductionExecution, BatchStreamingMatchesBackToBackReplays) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    const scop::Scop scop = spec.build(16);
    const std::uint64_t expected = sequentialOracle(scop, 50);

    const pipeline::PipelineInfo info =
        pipeline::detectPipeline(scop, optionsFor(RMode::Auto));
    auto shared = std::make_shared<const codegen::TaskProgram>(
        lowerProgram(scop, info));
    // The calibrated default (0) and the pool (4 workers).
    for (unsigned threads : {0u, 4u}) {
      tasking::CompiledPipeline pipe(shared, tasking::ReplayOptions{threads});
      kernels::ReductionRunner runner(scop, *shared);
      pipe.replayBatches(50, [&](std::size_t, std::size_t stmtIdx,
                                 const pb::Tuple& it) {
        runner.execute(stmtIdx, it);
      });
      EXPECT_EQ(runner.fingerprint(), expected)
          << spec.name << " threads=" << threads;
    }
  }
}

TEST(ReductionExecution, ResetRestoresTheInitialFingerprint) {
  const scop::Scop scop = kernels::stencilAccumulate(12);
  const std::uint64_t once = sequentialOracle(scop);
  kernels::ReductionRunner runner(scop);
  for (int round = 0; round < 3; ++round) {
    runner.reset();
    tasking::executeSequential(scop, runner.executor());
    EXPECT_EQ(runner.fingerprint(), once) << "round " << round;
  }
}

} // namespace
