#include "kernels/compute.hpp"
#include "kernels/matmul.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"

#include "codegen/task_program.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"
#include "tasking/tasking.hpp"

#include <gtest/gtest.h>

namespace pipoly::kernels {
namespace {

TEST(ComputeTest, IsPrimeSmallCases) {
  EXPECT_FALSE(isPrime(0));
  EXPECT_FALSE(isPrime(1));
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_FALSE(isPrime(4));
  EXPECT_TRUE(isPrime(97));
  EXPECT_FALSE(isPrime(91)); // 7 * 13
  EXPECT_TRUE(isPrime(7919));
}

TEST(ComputeTest, IsPrimeLargeCases) {
  EXPECT_TRUE(isPrime(2147483647ULL));        // Mersenne prime 2^31-1
  EXPECT_FALSE(isPrime(2147483647ULL * 3));
  EXPECT_TRUE(isPrime(1000000007ULL));
  EXPECT_TRUE(isPrime(18446744073709551557ULL)); // largest 64-bit prime
  // Strong pseudoprime to several bases; composite: 3215031751 = 151*751*28351.
  EXPECT_FALSE(isPrime(3215031751ULL));
}

TEST(ComputeTest, NextPrime) {
  EXPECT_EQ(nextPrime(0), 2u);
  EXPECT_EQ(nextPrime(2), 3u);
  EXPECT_EQ(nextPrime(13), 17u);
  EXPECT_EQ(nextPrime(14), 17u);
  EXPECT_EQ(nextPrime(7918), 7919u);
}

TEST(ComputeTest, KernelDeterministicAndSeedSensitive) {
  EXPECT_EQ(computeKernel(1, 2, 4), computeKernel(1, 2, 4));
  EXPECT_NE(computeKernel(1, 2, 4), computeKernel(2, 2, 4));
  EXPECT_NE(computeKernel(1, 2, 4), computeKernel(1, 3, 4));
}

TEST(ComputeTest, CostScalesWithNum) {
  double c1 = measureComputeCost(1, 4);
  double c8 = measureComputeCost(8, 4);
  EXPECT_GT(c8, 3.0 * c1) << "cost should grow roughly linearly in num";
}

TEST(SuiteTest, AllTenProgramsPresent) {
  const auto& programs = table9Programs();
  ASSERT_EQ(programs.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(programs[i].name, indexedName("P", i + 1));
}

TEST(SuiteTest, NestCountsMatchTable9) {
  EXPECT_EQ(programByName("P1").nums.size(), 2u);
  EXPECT_EQ(programByName("P2").nums.size(), 2u);
  EXPECT_EQ(programByName("P3").nums.size(), 3u);
  EXPECT_EQ(programByName("P4").nums.size(), 3u);
  for (const char* p : {"P5", "P6", "P7", "P8", "P9", "P10"})
    EXPECT_EQ(programByName(p).nums.size(), 4u) << p;
}

TEST(SuiteTest, NumValuesMatchTable9) {
  EXPECT_EQ(programByName("P2").nums, (std::vector<int>{2, 6}));
  EXPECT_EQ(programByName("P4").nums, (std::vector<int>{2, 2, 8}));
  EXPECT_EQ(programByName("P6").nums, (std::vector<int>{1, 8, 32, 32}));
  EXPECT_EQ(programByName("P7").nums, (std::vector<int>{1, 8, 8, 8}));
  EXPECT_EQ(programByName("P10").nums, (std::vector<int>{1, 2, 2, 2}));
}

TEST(SuiteTest, EveryProgramBuildsAndPipelines) {
  for (const ProgramSpec& spec : table9Programs()) {
    scop::Scop scop = buildProgram(spec, 16);
    EXPECT_EQ(scop.numStatements(), spec.nums.size()) << spec.name;
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    EXPECT_NO_THROW(prog.validate(scop)) << spec.name;
    // Cross-loop pipelining must produce more than one block somewhere.
    EXPECT_GT(prog.tasks.size(), scop.numStatements()) << spec.name;
  }
}

TEST(SuiteTest, ProgramsAreSerialPerNest) {
  for (const ProgramSpec& spec : table9Programs()) {
    scop::Scop scop = buildProgram(spec, 12);
    for (std::size_t s = 0; s < scop.numStatements(); ++s) {
      std::vector<bool> par = scop::parallelDims(scop, s);
      for (bool p : par)
        EXPECT_FALSE(p) << spec.name << " nest " << s;
    }
  }
}

TEST(SuiteRunnerTest, PipelinedMatchesSequentialP1P4) {
  for (const char* name : {"P1", "P4"}) {
    const ProgramSpec& spec = programByName(name);
    scop::Scop scop = buildProgram(spec, 10);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);

    SuiteRunner seq(spec, scop, /*size=*/2);
    tasking::executeSequential(scop, seq.executor());

    SuiteRunner par(spec, scop, /*size=*/2);
    auto layer = tasking::makeThreadPoolBackend(4);
    tasking::executeTaskProgram(prog, *layer, par.executor());
    EXPECT_EQ(par.fingerprint(), seq.fingerprint()) << name;
  }
}

TEST(MatmulTest, VariantMetadata) {
  EXPECT_EQ(variantName(MatmulVariant::NMM), "nmm");
  EXPECT_EQ(variantName(MatmulVariant::GNMMT), "gnmmt");
  EXPECT_TRUE(isTransposed(MatmulVariant::NMMT));
  EXPECT_FALSE(isTransposed(MatmulVariant::GNMM));
  EXPECT_TRUE(isGeneralized(MatmulVariant::GNMM));
  EXPECT_FALSE(isGeneralized(MatmulVariant::NMMT));
}

TEST(MatmulTest, ChainStructure) {
  scop::Scop scop = matmulChain(MatmulVariant::NMM, 3, 12);
  EXPECT_EQ(scop.numStatements(), 3u);
  // In + 3 operands + 3 results.
  EXPECT_EQ(scop.arrays().size(), 7u);
}

TEST(MatmulTest, ChainsCompileToPipelines) {
  for (auto v : {MatmulVariant::NMM, MatmulVariant::NMMT,
                 MatmulVariant::GNMM, MatmulVariant::GNMMT}) {
    for (std::size_t len : {2u, 3u, 4u}) {
      scop::Scop scop = matmulChain(v, len, 10);
      codegen::TaskProgram prog = codegen::compilePipeline(scop);
      EXPECT_NO_THROW(prog.validate(scop)) << variantName(v) << len;
      if (len >= 2) {
        EXPECT_GT(prog.tasks.size(), len) << variantName(v) << len;
      }
    }
  }
}

TEST(MatmulTest, RowBlocking) {
  // Nest k+1 reads whole rows of M_k, so the pipeline blocks of a source
  // nest must be (at most) rows: finishing row i of S1 enables row i of S2.
  scop::Scop scop = matmulChain(MatmulVariant::NMM, 2, 8);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  ASSERT_EQ(info.maps.size(), 1u);
  // Source block reps all end at the last column.
  for (const pb::Tuple& rep : info.statements[0].blockReps.points())
    EXPECT_EQ(rep[1], 7) << "source blocks should be full rows";
  // One block per row.
  EXPECT_EQ(info.statements[0].blockReps.size(), 8u);
}

TEST(MatmulTest, CostMeasurementsArePositive) {
  EXPECT_GT(measureDotCost(64, false), 0.0);
  EXPECT_GT(measureDotCost(64, true), 0.0);
  EXPECT_GT(measureTiledMatmulCostPerElement(64), 0.0);
}

} // namespace
} // namespace pipoly::kernels
