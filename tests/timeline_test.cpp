#include "sim/simulator.hpp"

#include "codegen/task_program.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::sim {
namespace {

struct Fixture {
  scop::Scop scop = testing::listing3(12);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel model;
  Fixture() { model.iterationCost.assign(scop.numStatements(), 1.0); }
};

TEST(TimelineTest, EventsCoverEveryTaskExactlyOnce) {
  Fixture s;
  SimResult r = simulate(s.prog, s.model, SimConfig{4});
  ASSERT_EQ(r.events.size(), s.prog.tasks.size());
  std::vector<bool> seen(s.prog.tasks.size(), false);
  for (const ScheduleEvent& ev : r.events) {
    EXPECT_FALSE(seen[ev.taskId]);
    seen[ev.taskId] = true;
    EXPECT_LT(ev.worker, 4u);
    EXPECT_LE(ev.start, ev.finish);
    EXPECT_LE(ev.finish, r.makespan + 1e-9);
  }
}

TEST(TimelineTest, NoWorkerOverlap) {
  Fixture s;
  SimResult r = simulate(s.prog, s.model, SimConfig{3});
  // Per worker, sorted events must not overlap.
  std::vector<std::vector<ScheduleEvent>> perWorker(3);
  for (const ScheduleEvent& ev : r.events)
    perWorker[ev.worker].push_back(ev);
  for (auto& events : perWorker) {
    std::sort(events.begin(), events.end(),
              [](const ScheduleEvent& a, const ScheduleEvent& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < events.size(); ++i)
      EXPECT_GE(events[i].start, events[i - 1].finish - 1e-9);
  }
}

TEST(TimelineTest, DependenciesRespectedInTime) {
  Fixture s;
  SimResult r = simulate(s.prog, s.model, SimConfig{8});
  std::vector<double> finish(s.prog.tasks.size(), 0.0);
  std::vector<double> start(s.prog.tasks.size(), 0.0);
  for (const ScheduleEvent& ev : r.events) {
    finish[ev.taskId] = ev.finish;
    start[ev.taskId] = ev.start;
  }
  for (const codegen::Task& t : s.prog.tasks)
    for (const codegen::TaskDep& d : t.in) {
      EXPECT_GE(start[t.id], finish[d.producer] - 1e-9)
          << "task " << t.id << " started before its dependency "
          << d.producer;
    }
}

TEST(TimelineTest, RenderShape) {
  Fixture s;
  SimResult r = simulate(s.prog, s.model, SimConfig{4});
  std::string text = renderTimeline(r, s.prog, s.scop, 60);
  // One row per worker plus the header.
  auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, 5u);
  // Statement letters appear.
  EXPECT_NE(text.find('S'), std::string::npos);
  EXPECT_NE(text.find('R'), std::string::npos);
  EXPECT_NE(text.find('U'), std::string::npos);
  // Pipelining: S and R run concurrently somewhere — both letters occur
  // in the same column on different rows. Extract worker rows.
  std::vector<std::string> rows;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t bar = text.find('|', pos);
    if (bar == std::string::npos)
      break;
    std::size_t end = text.find('|', bar + 1);
    rows.push_back(text.substr(bar + 1, end - bar - 1));
    pos = text.find('\n', end) + 1;
  }
  ASSERT_EQ(rows.size(), 4u);
  bool overlap = false;
  for (std::size_t c = 0; c < rows[0].size(); ++c) {
    bool hasS = false, hasOther = false;
    for (const std::string& row : rows) {
      hasS = hasS || row[c] == 'S';
      hasOther = hasOther || row[c] == 'R' || row[c] == 'U';
    }
    overlap = overlap || (hasS && hasOther);
  }
  EXPECT_TRUE(overlap) << "expected cross-loop overlap in:\n" << text;
}

TEST(TimelineTest, SingleWorkerSerializes) {
  Fixture s;
  SimResult r = simulate(s.prog, s.model, SimConfig{1});
  for (std::size_t i = 1; i < r.events.size(); ++i)
    EXPECT_GE(r.events[i].start, r.events[i - 1].finish - 1e-9);
}

} // namespace
} // namespace pipoly::sim
