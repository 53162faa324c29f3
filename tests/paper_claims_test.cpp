// Direct checks of claims the paper states in prose.

#include "baselines/polly_tasks.hpp"
#include "codegen/task_program.hpp"
#include "kernels/matmul.hpp"
#include "kernels/suite.hpp"
#include "sim/simulator.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace pipoly {
namespace {

/// Maximum number of tasks simultaneously in flight in a simulated
/// schedule.
std::size_t maxConcurrency(const sim::SimResult& r) {
  std::vector<std::pair<double, int>> deltas;
  for (const sim::ScheduleEvent& ev : r.events) {
    deltas.emplace_back(ev.start, +1);
    deltas.emplace_back(ev.finish, -1);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              // Process finishes before starts at equal times.
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  std::size_t best = 0;
  long current = 0;
  for (const auto& [t, d] : deltas) {
    current += d;
    best = std::max(best, static_cast<std::size_t>(std::max(0L, current)));
  }
  return best;
}

TEST(PaperClaimsTest, AtMostNTasksRunInParallel) {
  // §6: "for a program with n loop nests, there can be at most n tasks
  // running in parallel" (under the per-nest block chain).
  for (const char* name : {"P1", "P3", "P5", "P7"}) {
    scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 14);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    sim::CostModel model;
    model.iterationCost.assign(scop.numStatements(), 1e-5);
    sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{16});
    EXPECT_LE(maxConcurrency(r), scop.numStatements()) << name;
  }
}

TEST(PaperClaimsTest, Equation5HoldsAcrossTheSuite) {
  // §4.4: time(L_max) <= time(pipeline) <= time(sequential).
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, 12);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    sim::CostModel model;
    for (int num : spec.nums)
      model.iterationCost.push_back(1e-6 * num);
    sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
    EXPECT_GE(r.makespan, sim::maxNestTime(scop, model) - 1e-12)
        << spec.name;
    EXPECT_LE(r.makespan, sim::sequentialTime(scop, model) + 1e-12)
        << spec.name;
  }
}

TEST(PaperClaimsTest, CrossLoopPipeliningAlwaysGainsOnTheSuite) {
  // §6: "cross-loop pipelining always gains speed-up; however the amount
  // of it depends on the loops' access patterns".
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, 14);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    sim::CostModel model;
    for (int num : spec.nums)
      model.iterationCost.push_back(2e-6 * num);
    model.taskOverhead = 1e-8;
    sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
    const double speedup =
        r.speedupOver(sim::sequentialTime(scop, model));
    EXPECT_GT(speedup, 1.05) << spec.name;
  }
}

TEST(PaperClaimsTest, StatementIterationsRunInSequentialOrder) {
  // §1: "the iterations of each statement run in their sequential
  // order". Under the chain ordering, per statement, block start times
  // are ordered exactly like the blocks.
  scop::Scop scop = testing::listing3(14);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 1e-5);
  sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});

  std::vector<double> start(prog.tasks.size());
  for (const sim::ScheduleEvent& ev : r.events)
    start[ev.taskId] = ev.start;
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    double prev = -1.0;
    for (const codegen::Task& t : prog.tasks) {
      if (t.stmtIdx != s)
        continue;
      EXPECT_GE(start[t.id], prev - 1e-12);
      prev = start[t.id];
    }
  }
}

TEST(PaperClaimsTest, TwoNestProgramsSaturateAtTwo) {
  // Fig. 2's structure: with the chain, a two-nest program can at best
  // halve the time (P1's 1.7-1.9x in Fig. 10).
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P1"), 16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  sim::CostModel model;
  model.iterationCost.assign(2, 1e-5);
  sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
  const double speedup = r.speedupOver(sim::sequentialTime(scop, model));
  EXPECT_GT(speedup, 1.5);
  EXPECT_LE(speedup, 2.0 + 1e-9);
}

TEST(PaperClaimsTest, Figure11Shapes) {
  // Fig. 11 and the §7 combination on a fixed cost model (uniform
  // per-instance cost, Polly's tiled cost = the plain one, a small task
  // overhead), 8 workers: Polly wins on nmm, gains nothing on gnmm, where
  // only pipelining gains and gains more the longer the chain; relaxed
  // same-nest ordering reaches Polly on nmm and changes nothing on gnmm.
  constexpr pb::Value kN = 32;
  sim::CostModel model;
  model.taskOverhead = 1e-7;
  pipeline::DetectOptions relaxed;
  relaxed.relaxSameNestOrdering = true;
  auto log2Speedup = [](double seq, double time) {
    return std::log2(seq / time);
  };

  using V = kernels::MatmulVariant;
  for (V v : {V::NMM, V::GNMM}) {
    double previous = 0.0;
    for (std::size_t len : {2u, 3u, 4u}) {
      SCOPED_TRACE(kernels::variantName(v) + std::to_string(len));
      scop::Scop scop = kernels::matmulChain(v, len, kN);
      model.iterationCost.assign(scop.numStatements(), 1e-6);
      const double seq = sim::sequentialTime(scop, model);
      const auto lenThreads = static_cast<unsigned>(len);

      const double pipe = sim::simulate(codegen::compilePipeline(scop),
                                        model, sim::SimConfig{8})
                              .makespan;
      const double pipePar =
          sim::simulate(codegen::compilePipeline(scop, relaxed), model,
                        sim::SimConfig{8})
              .makespan;
      const double polly8 =
          sim::simulate(baselines::pollyTaskProgram(scop, 8), model,
                        sim::SimConfig{8})
              .makespan;
      const double pollyN =
          sim::simulate(baselines::pollyTaskProgram(scop, lenThreads),
                        model, sim::SimConfig{lenThreads})
              .makespan;

      const double speedup = log2Speedup(seq, pipe);
      EXPECT_GT(speedup, previous);
      previous = speedup;
      if (v == V::NMM) {
        EXPECT_LT(polly8, pipe);
        EXPECT_NEAR(log2Speedup(seq, pipePar), log2Speedup(seq, polly8),
                    0.1);
      } else {
        EXPECT_GE(polly8, seq);
        EXPECT_GE(pollyN, seq);
        EXPECT_EQ(pipePar, pipe);
      }
    }
  }
}

} // namespace
} // namespace pipoly
