#include "verify/oracle.hpp"

#include "codegen/task_program.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::verify {
namespace {

TEST(VerifyTest, SelfCheckPassesOnCorrectProgram) {
  scop::Scop scop = testing::listing3(12);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  auto layer = tasking::makeThreadPoolBackend(4);
  VerifyResult r = selfCheck(scop, prog, *layer, 3);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.expected, r.actual);
  EXPECT_EQ(r.backend, "threadpool");
}

TEST(VerifyTest, SelfCheckCatchesWrongExecutionOrder) {
  // Deterministic corruption: run the consumer nest *before* the
  // producer nest (drop all dependencies, reorder task creation). The
  // serial backend executes in creation order, so the oracle must see R
  // reading unwritten elements of A and flag the mismatch.
  scop::Scop scop = testing::listing1(14);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);

  codegen::TaskProgram broken = prog;
  std::stable_partition(broken.tasks.begin(), broken.tasks.end(),
                        [](const codegen::Task& t) { return t.stmtIdx == 1; });
  for (std::size_t k = 0; k < broken.tasks.size(); ++k) {
    broken.tasks[k].id = k;
    broken.tasks[k].in.clear();
  }

  auto serial = tasking::makeSerialBackend();
  EXPECT_FALSE(selfCheck(scop, broken, *serial).ok)
      << "the oracle must detect consumer-before-producer execution";

  // The intact program passes on every backend.
  std::vector<std::unique_ptr<tasking::TaskingLayer>> layers;
  layers.push_back(tasking::makeSerialBackend());
  layers.push_back(tasking::makeThreadPoolBackend(4));
  for (auto& layer : layers)
    EXPECT_TRUE(selfCheck(scop, prog, *layer).ok);
}

TEST(VerifyTest, SelfCheckReportsTheFirstMismatchingRepetition) {
  // The first of three runs executes one extra instance, perturbing one
  // array element; the later runs are correct. The check must fail and
  // report the perturbed fingerprint, not the last run's.
  scop::Scop scop = testing::listing1(10);
  int runs = 0;
  const VerifyResult r = selfCheck(
      scop, "flaky",
      [&](const tasking::StatementExecutor& exec) {
        tasking::executeSequential(scop, exec);
        if (runs++ == 0)
          exec(0, scop.statement(0).domain().points().front());
      },
      3);
  EXPECT_EQ(runs, 3);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.actual, r.expected);
  EXPECT_EQ(r.backend, "flaky");
}

TEST(VerifyTest, SequentialFingerprintIsDeterministic) {
  scop::Scop scop = testing::chain(3, 8);
  EXPECT_EQ(sequentialFingerprint(scop), sequentialFingerprint(scop));
}

TEST(VerifyTest, FingerprintSensitiveToAnyExecutionChange) {
  // Executing one extra instance must change the fingerprint.
  scop::Scop scop = testing::listing1(10);
  InterpretedKernel a(scop), b(scop);
  tasking::executeSequential(scop, a.executor());
  tasking::executeSequential(scop, b.executor());
  b.execute(0, scop.statement(0).domain().points().front());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

} // namespace
} // namespace pipoly::verify
