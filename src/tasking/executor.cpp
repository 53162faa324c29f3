#include "tasking/executor.hpp"

#include "support/assert.hpp"

#include <vector>

namespace pipoly::tasking {

namespace {

/// The per-task input structure handed through the void* CreateTask API
/// (the paper integrates the task's arguments into a struct, §5.5). The
/// backend copies this record (Fig. 8's memcpy), not the Task it points
/// to — hence the lifetime contract in executor.hpp.
struct TaskLaunch {
  const codegen::Task* task;
  const StatementExecutor* exec;
};

/// The extracted task function: runs every iteration of one block.
void runBlock(void* raw) {
  const TaskLaunch& launch = *static_cast<TaskLaunch*>(raw);
  for (const pb::TupleView it : launch.task->iterations)
    (*launch.exec)(launch.task->stmtIdx, it);
}

/// Stand-ins for the arrays of a task with no in-dependencies: `data()` of
/// an empty vector may be null, and null pointers would flow into
/// depend-clause address arithmetic (the OpenMP iterator clause evaluates
/// its base array even for an empty range).
constexpr std::int64_t kEmptyDepend[1] = {0};
constexpr int kEmptyIdx[1] = {0};

} // namespace

void executeTaskProgram(const codegen::TaskProgram& program,
                        TaskingLayer& layer, const StatementExecutor& exec) {
  executeTaskProgram(program, opt::buildSlotTable(program), layer, exec);
}

void executeTaskProgram(const codegen::TaskProgram& program,
                        const opt::SlotTable& slots, TaskingLayer& layer,
                        const StatementExecutor& exec) {
  PIPOLY_CHECK_MSG(slots.compatibleWith(program),
                   "slot table does not match the task program");
  layer.run([&] {
    layer.reserveDependencySlots(slots.numSlots);
    std::vector<std::int64_t> inDepend;
    std::vector<int> inIdx;
    for (const codegen::Task& task : program.tasks) {
      // The tag is the dense slot (the producing task's id); the idx is
      // the idx that task publishes, so generic (idx, tag) backends that
      // key on it (examples/custom_backend.cpp) still see the statement
      // structure.
      inDepend.clear();
      inIdx.clear();
      for (const std::uint32_t* s = slots.inBegin(task.id);
           s != slots.inEnd(task.id); ++s) {
        inDepend.push_back(static_cast<std::int64_t>(*s));
        inIdx.push_back(program.tasks[*s].out.idx);
      }
      TaskLaunch launch{&task, &exec};
      layer.createTask(&runBlock, &launch, sizeof(TaskLaunch),
                       static_cast<std::int64_t>(task.id), task.out.idx,
                       inDepend.empty() ? kEmptyDepend : inDepend.data(),
                       inIdx.empty() ? kEmptyIdx : inIdx.data(),
                       inDepend.size());
    }
  });
}

void executeSequential(const scop::Scop& scop, const StatementExecutor& exec) {
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    for (const pb::Tuple& it : scop.statement(s).domain().points())
      exec(s, it);
}

} // namespace pipoly::tasking
