#pragma once

// Bridges the backend-agnostic TaskProgram (§5.4 output) and the tasking
// layer (§5.5): spawns one task per block through the paper's CreateTask
// API. The statement bodies are provided by the caller as a callback that
// executes one dynamic instance (stmtIdx, iteration vector) — the stand-in
// for the function the prototype extracts out of the pipeline-loop body.

#include "codegen/task_program.hpp"
#include "opt/optimizer.hpp"
#include "tasking/tasking.hpp"

#include <functional>

namespace pipoly::tasking {

/// Executes one dynamic statement instance.
using StatementExecutor =
    std::function<void(std::size_t stmtIdx, const pb::Tuple& iteration)>;

/// Runs the whole task program on the given backend: one CreateTask per
/// task, in creation order, through the interned dependency slots of
/// `slots` (opt::buildSlotTable of this very program; checked). The
/// backend is handed the reserveDependencySlots hint and dense keys: the
/// tag is the producing task's id, the idx the statement slot that task
/// publishes (task.out.idx). Backends that honour the hint resolve every
/// dependency with O(1) array indexing on the tag; generic (idx, tag)
/// backends still see the statement structure in the idx. Blocks until
/// every task finished.
///
/// Lifetime: the launch records handed to the backend carry raw pointers
/// into `program` (and into `exec`); both must stay alive until the call
/// returns. They may be destroyed afterwards — for repeated execution
/// beyond the caller's scope use tasking::CompiledPipeline
/// (replay_executor.hpp), which shares ownership of the program.
void executeTaskProgram(const codegen::TaskProgram& program,
                        const opt::SlotTable& slots, TaskingLayer& layer,
                        const StatementExecutor& exec);

/// Convenience: builds the slot table first.
void executeTaskProgram(const codegen::TaskProgram& program,
                        TaskingLayer& layer, const StatementExecutor& exec);

/// Reference execution: runs every statement's iterations in original
/// program order without tasking. Used as ground truth by tests and
/// benchmarks.
void executeSequential(const scop::Scop& scop, const StatementExecutor& exec);

} // namespace pipoly::tasking
