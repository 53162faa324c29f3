// Failure-injection tests: corrupted task programs must be rejected by
// TaskProgram::validate. The validator is the last line of defence
// between the polyhedral analysis and the runtime, so it has to catch
// every class of structural damage.

#include "codegen/task_program.hpp"

#include "kernels/reduction_kernels.hpp"
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

// The producer-id checks, each built so that no other check fires: the
// ids and tags stay consistent everywhere but in the one damaged place.

TEST(ValidateTest, RejectsAProducerThatDisagreesWithItsTag) {
  TaskProgram prog = freshProgram();
  // A cross-statement dependency now names another earlier task while
  // keeping its tag.
  for (Task& t : prog.tasks)
    for (TaskDep& d : t.in)
      if (!d.selfOrdering && d.producer > 0) {
        d.producer -= 1;
        EXPECT_THROW(prog.validate(fixtureScop()), Error);
        return;
      }
  FAIL() << "fixture has no cross-statement dependency";
}

TEST(ValidateTest, RejectsAProducerAtItsOwnTask) {
  TaskProgram prog = freshProgram();
  Task& t = prog.tasks.back();
  t.in.push_back(t.out);
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsAProducerAfterItsTask) {
  TaskProgram prog = freshProgram();
  prog.tasks.front().in.push_back(prog.tasks.back().out);
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsADuplicateOutTagWithConsistentProducers) {
  // Task 1 publishes task 0's tag; every reader of task 1 carries the
  // new tag, so only the duplicate itself is wrong.
  TaskProgram prog = freshProgram();
  ASSERT_EQ(prog.tasks[0].stmtIdx, prog.tasks[1].stmtIdx);
  const std::int64_t tag = prog.tasks[0].out.tag;
  prog.tasks[1].out.tag = tag;
  for (Task& t : prog.tasks)
    for (TaskDep& d : t.in)
      if (d.producer == 1)
        d.tag = tag;
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

/// The first task that follows another task of its statement and has
/// at least two iterations; such a task has a predecessor to tile
/// against and a row to give away.
Task& innerTask(TaskProgram& prog) {
  for (std::size_t i = 1; i < prog.tasks.size(); ++i)
    if (prog.tasks[i].stmtIdx == prog.tasks[i - 1].stmtIdx &&
        prog.tasks[i].iterations.size() > 1)
      return prog.tasks[i];
  throw Error("fixture has no inner multi-iteration task");
}

/// Replaces a task's rows with [begin, end) of its statement's table.
void setRows(TaskProgram& prog, Task& t, std::size_t begin, std::size_t end) {
  t.iterations = IterationRange(prog.rowTables[t.stmtIdx], begin, end);
}

TEST(ValidateTest, RejectsLostIterations) {
  // A gap between consecutive tasks: the task no longer starts where its
  // predecessor ended. Its last row, the representative, is unchanged.
  TaskProgram prog = freshProgram();
  Task& t = innerTask(prog);
  setRows(prog, t, t.iterations.rowBegin() + 1, t.iterations.rowEnd());
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsOverlappingIntervals) {
  // The task also claims its predecessor's last row (double execution).
  TaskProgram prog = freshProgram();
  Task& t = innerTask(prog);
  setRows(prog, t, t.iterations.rowBegin() - 1, t.iterations.rowEnd());
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsAnIntervalPastTheDomainEnd) {
  TaskProgram prog = freshProgram();
  const pb::IntTupleSet& domain = prog.rowTables[prog.tasks.back().stmtIdx];
  EXPECT_THROW((void)IterationRange(domain, prog.tasks.back().iterations
                                                .rowBegin(),
                                    domain.size() + 1),
               Error);
}

TEST(ValidateTest, RejectsAnEmptyInterval) {
  // The task hands all its rows to its successor and keeps the previous
  // row as its (empty) range's representative, so the tiling, the
  // chain and every representative still line up.
  TaskProgram prog = freshProgram();
  std::size_t i = 1;
  while (i + 1 < prog.tasks.size() &&
         !(prog.tasks[i - 1].stmtIdx == prog.tasks[i].stmtIdx &&
           prog.tasks[i].stmtIdx == prog.tasks[i + 1].stmtIdx))
    ++i;
  ASSERT_LT(i + 1, prog.tasks.size());
  Task& t = prog.tasks[i];
  Task& next = prog.tasks[i + 1];
  const std::uint32_t begin = t.iterations.rowBegin();
  setRows(prog, next, begin, next.iterations.rowEnd());
  setRows(prog, t, begin, begin);
  t.blockRep = prog.rowTables[t.stmtIdx].points()[begin - 1];
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, RejectsAMissingTrailingBlock) {
  // The remaining tasks still tile a prefix of the domain; only the end
  // of the domain is never reached.
  TaskProgram prog = freshProgram();
  const std::size_t last = prog.tasks.back().stmtIdx;
  ASSERT_GT(std::count_if(prog.tasks.begin(), prog.tasks.end(),
                          [&](const Task& t) { return t.stmtIdx == last; }),
            1);
  prog.tasks.pop_back();
  EXPECT_THROW(prog.validate(fixtureScop()), Error);
}

TEST(ValidateTest, AcceptsAShiftedBlockBoundary) {
  // Any in-order tiling of the domain is a valid partition: moving a
  // boundary one row on (and the representative with it) passes.
  TaskProgram prog = freshProgram();
  Task& t = innerTask(prog);
  Task& prev = prog.tasks[t.id - 1];
  const std::uint32_t boundary = t.iterations.rowBegin() + 1;
  setRows(prog, prev, prev.iterations.rowBegin(), boundary);
  setRows(prog, t, boundary, t.iterations.rowEnd());
  prev.blockRep = prev.iterations.back();
  EXPECT_NO_THROW(prog.validate(fixtureScop()));
}

TEST(ValidateTest, RejectsACombineFoldCountMismatch) {
  const kernels::ReductionKernelSpec& spec =
      kernels::reductionKernelByName("norm_accumulate");
  const scop::Scop scop = spec.build(8);
  TaskProgram prog = compilePipeline(scop);
  ASSERT_NO_THROW(prog.validate(scop));
  const auto combine =
      std::find_if(prog.tasks.begin(), prog.tasks.end(), [](const Task& t) {
        return t.kind == TaskKind::ReductionCombine;
      });
  ASSERT_NE(combine, prog.tasks.end());
  ASSERT_GT(combine->iterations.size(), 1u);
  // One fold step too few; the remaining steps still enumerate 0, 1, ...
  combine->iterations =
      IterationRange(prog.rowTables.back(), 0, combine->iterations.size() - 1);
  combine->blockRep = combine->iterations.back();
  EXPECT_THROW(prog.validate(scop), Error);
}

TEST(ValidateTest, RejectsWrongBlockRepresentative) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      t.blockRep = t.iterations[0]; // must be the *last* iteration
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
