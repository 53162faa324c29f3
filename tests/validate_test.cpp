// Failure-injection tests: corrupted task programs must be rejected by
// TaskProgram::validate. The validator is the last line of defence
// between the polyhedral analysis and the runtime, so it has to catch
// every class of structural damage.

#include "codegen/task_program.hpp"

#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pipoly::codegen {
namespace {

TaskProgram freshProgram() {
  return compilePipeline(testing::listing1(12));
}

scop::Scop fixtureScop() { return testing::listing1(12); }

TEST(ValidateTest, PristineProgramPasses) {
  EXPECT_NO_THROW(freshProgram().validate(fixtureScop()));
}

TEST(ValidateTest, RejectsDroppedSelfOrderingDependency) {
  TaskProgram prog = freshProgram();
  // Find a task with a self-ordering dep and drop it.
  for (Task& t : prog.tasks) {
    auto it = std::find_if(t.in.begin(), t.in.end(),
                           [](const TaskDep& d) { return d.selfOrdering; });
    if (it != t.in.end()) {
      t.in.erase(it);
      break;
    }
  }
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsDanglingInDependency) {
  TaskProgram prog = freshProgram();
  prog.tasks.back().in.push_back(TaskDep{0, 999999});
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsForwardDependency) {
  TaskProgram prog = freshProgram();
  // Make an early task depend on the last task's out slot.
  const Task& last = prog.tasks.back();
  prog.tasks.front().in.push_back(TaskDep{last.out.idx, last.out.tag});
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsDuplicateOutTags) {
  TaskProgram prog = freshProgram();
  prog.tasks[1].out = prog.tasks[0].out;
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsLostIterations) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      t.iterations.erase(t.iterations.begin());
      break;
    }
  }
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsAMissingTrailingBlock) {
  // The iterations that remain still arrive in lexicographic order; only
  // the end of the domain is never reached.
  TaskProgram prog = freshProgram();
  const std::size_t last = prog.tasks.back().stmtIdx;
  ASSERT_GT(std::count_if(prog.tasks.begin(), prog.tasks.end(),
                          [&](const Task& t) { return t.stmtIdx == last; }),
            1);
  prog.tasks.pop_back();
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, AcceptsAPartitionOutOfLexOrderAcrossTasks) {
  // Moving a block's first iteration into the next block of the same
  // statement keeps a partition, each task sorted and every block
  // representative, but the statement's iterations no longer arrive in
  // lexicographic order.
  TaskProgram prog = freshProgram();
  bool moved = false;
  for (std::size_t i = 0; i + 1 < prog.tasks.size() && !moved; ++i) {
    Task& a = prog.tasks[i];
    Task& b = prog.tasks[i + 1];
    if (a.stmtIdx != b.stmtIdx || a.iterations.size() < 2)
      continue;
    b.iterations.push_back(a.iterations.front());
    std::sort(b.iterations.begin(), b.iterations.end());
    a.iterations.erase(a.iterations.begin());
    moved = true;
  }
  ASSERT_TRUE(moved);
  EXPECT_NO_THROW(prog.validate(fixtureScop()));
}

TEST(ValidateTest, RejectsDuplicatedIterations) {
  TaskProgram prog = freshProgram();
  // Move an iteration from one task into another (double execution).
  Task* donor = nullptr;
  for (Task& t : prog.tasks)
    if (t.stmtIdx == 0 && t.iterations.size() > 1)
      donor = &t;
  ASSERT_NE(donor, nullptr);
  for (Task& t : prog.tasks) {
    if (&t != donor && t.stmtIdx == 0) {
      t.iterations.push_back(donor->iterations.front());
      std::sort(t.iterations.begin(), t.iterations.end());
      break;
    }
  }
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsMisorderedIterationsWithinTask) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      std::swap(t.iterations.front(), t.iterations.back());
      break;
    }
  }
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsWrongBlockRepresentative) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      t.blockRep = t.iterations.front(); // must be the *last* iteration
      break;
    }
  }
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsWrongScop) {
  TaskProgram prog = freshProgram();
  EXPECT_THROW(prog.validate(testing::listing1(16)), Error);
  EXPECT_THROW(prog.validate(testing::listing3(12)), Error);
}

TEST(ValidateTest, RejectsRenumberedIds) {
  TaskProgram prog = freshProgram();
  prog.tasks[2].id = 99;
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

} // namespace
} // namespace pipoly::codegen
