#include "baselines/polly_tasks.hpp"

#include "kernels/matmul.hpp"
#include "kernels/suite.hpp"
#include "sim/simulator.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pipoly::baselines {
namespace {

TEST(PollyTasksTest, SerialNestsBecomeOneTaskEach) {
  scop::Scop scop = testing::listing1(12);
  codegen::TaskProgram prog = pollyTaskProgram(scop, 8);
  EXPECT_EQ(prog.tasks.size(), 2u); // both nests are serial
  EXPECT_NO_THROW(prog.validate(scop));
}

TEST(PollyTasksTest, ParallelNestsChunk) {
  scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM, 2, 16);
  codegen::TaskProgram prog = pollyTaskProgram(scop, 4);
  EXPECT_EQ(prog.tasks.size(), 8u); // 2 nests x 4 chunks
  EXPECT_NO_THROW(prog.validate(scop));
}

TEST(PollyTasksTest, BarrierBetweenNests) {
  scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM, 2, 16);
  codegen::TaskProgram prog = pollyTaskProgram(scop, 4);
  for (const codegen::Task& t : prog.tasks) {
    if (t.stmtIdx == 0)
      EXPECT_TRUE(t.in.empty());
    else
      EXPECT_EQ(t.in.size(), 4u) << "each chunk waits for all 4 producers";
  }
}

TEST(PollyTasksTest, ExecutionMatchesSequential) {
  for (auto scop :
       {testing::listing1(12),
        kernels::matmulChain(kernels::MatmulVariant::NMM, 2, 10),
        kernels::matmulChain(kernels::MatmulVariant::GNMM, 2, 10)}) {
    codegen::TaskProgram prog = pollyTaskProgram(scop, 4);
    auto layer = tasking::makeThreadPoolBackend(4);
    EXPECT_TRUE(verify::selfCheck(scop, prog, *layer, 2).ok)
        << scop.name();
  }
}

TEST(PollyTasksTest, SimulatedNmmChainIsSequentialOverThreads) {
  // 16 rows split into 4 equal chunks per nest, barriers between nests:
  // with uniform cost and no overhead the makespan is exactly seq / 4.
  scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM, 3, 16);
  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 1.0);

  codegen::TaskProgram prog = pollyTaskProgram(scop, 4);
  EXPECT_EQ(sim::simulate(prog, model, sim::SimConfig{4}).makespan,
            sim::sequentialTime(scop, model) / 4.0);
}

TEST(PollyTasksTest, Table9ProgramsAreAllSerial) {
  // The paper designed the first benchmark set so Polly finds nothing:
  // every nest stays one task.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    scop::Scop scop = kernels::buildProgram(spec, 16);
    EXPECT_EQ(pollyTaskProgram(scop, 8).tasks.size(), scop.numStatements())
        << spec.name;
  }
}

TEST(PollyTasksTest, NmmNestsAreParallelGnmmAreNot) {
  scop::Scop nmm = kernels::matmulChain(kernels::MatmulVariant::NMM, 2, 16);
  codegen::TaskProgram nmmProg = pollyTaskProgram(nmm, 8);
  EXPECT_EQ(nmmProg.tasks.size(), 2u * 8u);
  for (std::size_t s = 0; s < nmm.numStatements(); ++s)
    EXPECT_EQ(std::count_if(nmmProg.tasks.begin(), nmmProg.tasks.end(),
                            [&](const codegen::Task& t) {
                              return t.stmtIdx == s;
                            }),
              8)
        << "nest " << s << " runs 8 chunks";

  scop::Scop gnmm = kernels::matmulChain(kernels::MatmulVariant::GNMM, 2, 16);
  EXPECT_EQ(pollyTaskProgram(gnmm, 8).tasks.size(), gnmm.numStatements());
}

TEST(PollyTasksTest, MoreThreadsMoreChunksUpToRows) {
  scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM, 1, 8);
  EXPECT_EQ(pollyTaskProgram(scop, 2).tasks.size(), 2u);
  EXPECT_EQ(pollyTaskProgram(scop, 8).tasks.size(), 8u);
  // Caps at the trip count of the parallel dimension (8 rows).
  EXPECT_EQ(pollyTaskProgram(scop, 64).tasks.size(), 8u);
}

} // namespace
} // namespace pipoly::baselines
