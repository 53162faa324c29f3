#pragma once

// Discrete-event simulation of a k-worker machine executing a TaskProgram
// under greedy (list-scheduling) dispatch. This is the documented
// substitution for the paper's quad-core (8 hardware threads) testbed:
// parallel speedups are reproduced as makespans of the real task graph
// under a measured cost model, so they do not depend on how many cores
// the evaluation host has. The simulator realises exactly the §4.4 performance
// model: time(L_max) <= time(pipeline) <= time(sequential), with the
// start/finish phases of eq. 6 emerging from the dependency structure.

#include "codegen/task_program.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "runtime/placement.hpp"
#include "scop/scop.hpp"
#include "trace/trace.hpp"

#include <cstdint>
#include <vector>

namespace pipoly::sim {

/// Per-statement cost model. Iteration costs are in seconds and typically
/// come from measuring the real kernel on the host (see bench/).
struct CostModel {
  std::vector<double> iterationCost; // indexed by statement
  double taskOverhead = 0.0;         // per-task spawn/dispatch cost
  double dependOverhead = 0.0;       // per-in-dependency resolve cost
  /// Communication term (channel route): seconds per byte moved across a
  /// pipeline edge — the inter-stage transfer cost the task-depend model
  /// hides inside dependOverhead. 0 models infinitely fast channels.
  double commCostPerByte = 0.0;
  /// Per-token channel cost (push + pop + the consumer's poll), the
  /// channel analogue of taskOverhead/dependOverhead.
  double channelTokenOverhead = 0.0;

  double taskCost(const codegen::Task& task) const {
    return taskOverhead +
           dependOverhead * static_cast<double>(task.in.size()) +
           static_cast<double>(task.iterations.size()) *
               iterationCost.at(task.stmtIdx);
  }
};

struct SimConfig {
  unsigned workers = 8;
};

/// One scheduled task execution (for timeline rendering, cf. Fig. 2).
struct ScheduleEvent {
  std::size_t taskId;
  unsigned worker;
  double start;
  double finish;
};

struct SimResult {
  double makespan = 0.0;
  double totalWork = 0.0;    // sum of all task costs
  double criticalPath = 0.0; // longest cost-weighted dependency chain
  unsigned workers = 0;
  std::size_t numTasks = 0;
  std::vector<ScheduleEvent> events; // in dispatch order

  double utilization() const {
    return makespan > 0.0 ? totalWork / (makespan * workers) : 0.0;
  }
  double speedupOver(double sequentialTime) const {
    return makespan > 0.0 ? sequentialTime / makespan : 0.0;
  }
};

/// Greedy non-preemptive list scheduling of the task graph on `workers`
/// identical workers; ready tasks are dispatched in creation order (lowest
/// task id first, roughly an OpenMP runtime's FIFO queue). The
/// dependency edges come from the interned slot table
/// (opt::buildSlotTable of this very program).
SimResult simulate(const codegen::TaskProgram& program,
                   const opt::SlotTable& slots, const CostModel& model,
                   const SimConfig& config);

/// Convenience: builds the slot table first.
SimResult simulate(const codegen::TaskProgram& program, const CostModel& model,
                   const SimConfig& config);

/// Channel occupancy and communication load of one pipeline edge under
/// the channel-route simulation.
struct ChannelEdgeLoad {
  std::size_t srcStmt = 0;
  std::size_t tgtStmt = 0;
  std::uint64_t totalBytes = 0; // from the communication analysis
  double bytesPerToken = 0.0;   // totalBytes / producer task count
  std::uint32_t capacitySlots = 0; // sized ring capacity (analysis)
  std::uint32_t peakTokens = 0;    // simulated peak in-flight tokens
};

struct ChannelSimResult {
  double makespan = 0.0;
  double commTime = 0.0; // total edge-latency seconds paid (all tokens)
  std::uint64_t bytesMoved = 0;
  std::size_t numStages = 0;
  std::vector<ChannelEdgeLoad> edges;

  double speedupOver(double other) const {
    return makespan > 0.0 ? other / makespan : 0.0;
  }
};

/// Predicts the channel execution route (tasking/channel_backend): one
/// persistent worker per stage of codegen::stageLayout(program,
/// codegen::channelWorkers(workers)) (0 = the engine's default), tasks
/// in creation order within a stage, a cross-stage dependency satisfied
/// `edgeLatency` after its producer finishes, where
///   edgeLatency = channelTokenOverhead + commCostPerByte * bytesPerToken.
/// Channels are modelled unbounded — capacities from the communication
/// analysis are sized so a keeping-pace consumer never stalls its
/// producer, so backpressure only binds when the consumer is the
/// bottleneck anyway; the per-edge peak occupancy is reported so the
/// sizing can be checked against the simulated schedule. Task bodies
/// cost iterations x iterationCost only: the channel route spawns no
/// tasks and resolves no dependency slots, which is exactly the overhead
/// difference this model exposes against simulate().
ChannelSimResult simulateChannels(const codegen::TaskProgram& program,
                                  const pipeline::CommInfo& comm,
                                  const CostModel& model,
                                  unsigned workers = 0);

/// Placed variant: predicts the channel route under a concrete stage
/// placement (the engine's ChannelPipeline::placement(), or any
/// rt::placeStages output for the stages of codegen::stageLayout(program,
/// its worker count)). Differences from the placement-free overload:
///   * stages sharing a worker serialize — a worker clock joins the
///     per-stage clock, so the predicted makespan reflects worker
///     contention, not one-idealized-worker-per-stage;
///   * only a cross-worker edge pays the per-byte transfer term, while a
///     same-worker edge pays only channelTokenOverhead (nothing moves).
ChannelSimResult simulateChannels(const codegen::TaskProgram& program,
                                  const pipeline::CommInfo& comm,
                                  const CostModel& model,
                                  const rt::Placement& placement);

/// Time of the original (un-pipelined) program: all iterations in order.
double sequentialTime(const scop::Scop& scop, const CostModel& model);

/// Running time of the single most expensive loop nest — the paper's
/// time(L_max) lower bound of eq. 5.
double maxNestTime(const scop::Scop& scop, const CostModel& model);

/// Renders the simulated schedule as an ASCII Gantt chart (the paper's
/// Fig. 2 visualisation): one row per worker, each task drawn as a run of
/// its statement's letter. `width` is the number of character columns the
/// makespan is scaled onto.
std::string renderTimeline(const SimResult& result,
                           const codegen::TaskProgram& program,
                           const scop::Scop& scop, std::size_t width = 80);

/// Appends the simulated schedule to a drained trace as a separate set of
/// tracks (pid 2, "predicted worker k"): the predicted Fig.-2 timeline
/// rendered next to the measured one in the same Chrome-trace file. Each
/// ScheduleEvent becomes a Begin/End span named after its statement and
/// block, with simulated seconds mapped onto the trace's nanosecond axis.
/// Appended to an empty trace it is the stand-alone predicted timeline;
/// either way trace::toChromeJson writes the file (the one Chrome-trace
/// writer).
void appendPredictedTimeline(trace::Trace& trace, const SimResult& result,
                             const codegen::TaskProgram& program,
                             const scop::Scop& scop);

} // namespace pipoly::sim
