#include "codegen/task_program.hpp"

#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"
#include "testing/resolve_oracle.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace pipoly::codegen {
namespace {

using pb::Tuple;

TEST(LinearizeTest, Scheme) {
  EXPECT_EQ(linearizeBlockVector(Tuple{}), 0);
  EXPECT_EQ(linearizeBlockVector(Tuple{7}), 7);
  EXPECT_EQ(linearizeBlockVector(Tuple{1, 2}), kLinearStride + 2);
  EXPECT_EQ(linearizeBlockVector(Tuple{3, 0, 5}),
            3 * kLinearStride * kLinearStride + 5);
}

TEST(LinearizeTest, InjectiveOnDistinctVectors) {
  std::set<std::int64_t> tags;
  for (pb::Value a = 0; a < 7; ++a)
    for (pb::Value b = 0; b < 7; ++b)
      EXPECT_TRUE(tags.insert(linearizeBlockVector(Tuple{a, b})).second);
}

TEST(LinearizeTest, RejectsOutOfRange) {
  EXPECT_THROW((void)linearizeBlockVector(Tuple{-1}), Error);
  EXPECT_THROW((void)linearizeBlockVector(Tuple{kLinearStride}), Error);
}

TEST(TaskProgramTest, Listing1Lowering) {
  scop::Scop scop = testing::listing1(12);
  TaskProgram prog = compilePipeline(scop);
  EXPECT_EQ(prog.numStatements, 2u);
  EXPECT_EQ(prog.writeNum, 1u); // only S is a source
  EXPECT_NO_THROW(prog.validate(scop));

  // Every task of R (stmt 1) except possibly the remainder must have a
  // cross-statement in-dep on S (stmt 0).
  std::size_t crossDeps = 0;
  for (const Task& t : prog.tasks) {
    if (t.stmtIdx != 1)
      continue;
    for (const TaskDep& d : t.in)
      if (!d.selfOrdering && d.idx == 0)
        ++crossDeps;
  }
  EXPECT_GT(crossDeps, 0u);
}

TEST(TaskProgramTest, CreationOrderResolvesDependencies) {
  // validate() checks that every in-dep names an *earlier* task, which is
  // exactly what OpenMP's depend clause needs with sequential creation.
  for (pb::Value n : {8, 12, 20})
    EXPECT_NO_THROW(compilePipeline(testing::listing1(n)));
  EXPECT_NO_THROW(compilePipeline(testing::listing3(16)));
  EXPECT_NO_THROW(compilePipeline(testing::chain(4, 9)));
}

TEST(TaskProgramTest, TaskCountMatchesBlockCount) {
  scop::Scop scop = testing::listing3(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  TaskProgram prog = compilePipeline(scop);
  EXPECT_EQ(prog.tasks.size(), info.totalBlocks());
}

TEST(TaskProgramTest, TaskWithOutLookup) {
  scop::Scop scop = testing::listing1(12);
  TaskProgram prog = compilePipeline(scop);
  const Task& t = prog.tasks.at(3);
  EXPECT_EQ(t.out.producer, t.id);
  EXPECT_EQ(testing::taskWithOut(prog, t.out), t.id);
  EXPECT_EQ(testing::taskWithOut(prog, TaskDep{99, 0}), std::nullopt);
}

TEST(TaskProgramTest, SelfOrderingChainIsComplete) {
  scop::Scop scop = testing::listing3(20);
  TaskProgram prog = compilePipeline(scop);
  // Per statement, every task but the first must carry a self dep on the
  // previous block; validate() enforces this, re-check one chain directly.
  std::vector<const Task*> rTasks;
  for (const Task& t : prog.tasks)
    if (t.stmtIdx == 1)
      rTasks.push_back(&t);
  ASSERT_GT(rTasks.size(), 1u);
  for (std::size_t k = 1; k < rTasks.size(); ++k) {
    bool found = false;
    for (const TaskDep& d : rTasks[k]->in)
      if (d.selfOrdering && d.tag == rTasks[k - 1]->out.tag)
        found = true;
    EXPECT_TRUE(found);
  }
}

TEST(TaskProgramTest, WriteNumCountsSources) {
  // chain(4): S0, S1, S2 are sources (S3 is a sink).
  TaskProgram prog = compilePipeline(testing::chain(4, 9));
  EXPECT_EQ(prog.writeNum, 3u);
}

/// Semantic ground truth: executing tasks in any topological order of the
/// declared dependency edges must respect every flow dependence of the
/// original SCoP. We check the strongest form: for each flow dep
/// (i of src) -> (j of tgt), the task owning j must transitively depend on
/// the task owning i.
void checkTransitiveCoverage(const scop::Scop& scop) {
  TaskProgram prog = compilePipeline(scop);

  // Map (stmt, iteration) -> task id.
  std::map<std::pair<std::size_t, Tuple>, std::size_t> owner;
  for (const Task& t : prog.tasks)
    for (const Tuple& it : t.iterations)
      owner[{t.stmtIdx, it}] = t.id;

  // Transitive reachability over dependency edges (dep -> dependent).
  const std::size_t n = prog.tasks.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const Task& t : prog.tasks) {
    for (const TaskDep& d : t.in) {
      // The recorded producer is the task the (idx, tag) pair names.
      ASSERT_EQ(testing::taskWithOut(prog, d), d.producer);
      reach[d.producer][t.id] = true;
    }
    reach[t.id][t.id] = true;
  }
  // Tasks are creation-ordered and edges only go forward: one forward pass
  // of transitive closure suffices.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      if (reach[i][k])
        for (std::size_t j = k; j < n; ++j)
          if (reach[k][j])
            reach[i][j] = true;

  for (std::size_t t = 0; t < scop.numStatements(); ++t) {
    for (std::size_t s = 0; s < t; ++s) {
      pb::IntMap flow = scop::flowDependences(scop, s, t);
      for (const auto& [i, j] : flow.pairs()) {
        std::size_t srcTask = owner.at({s, i});
        std::size_t tgtTask = owner.at({t, j});
        EXPECT_TRUE(reach[srcTask][tgtTask])
            << "flow dep " << i << " -> " << j << " (stmts " << s << " -> "
            << t << ") not enforced by the task graph";
      }
    }
  }
}

TEST(TaskProgramSemanticsTest, Listing1FlowCoverage) {
  checkTransitiveCoverage(testing::listing1(12));
}

TEST(TaskProgramSemanticsTest, Listing3FlowCoverage) {
  checkTransitiveCoverage(testing::listing3(12));
}

TEST(TaskProgramSemanticsTest, Chain3FlowCoverage) {
  checkTransitiveCoverage(testing::chain(3, 7));
}

} // namespace
} // namespace pipoly::codegen
