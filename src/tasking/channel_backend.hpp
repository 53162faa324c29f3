#pragma once

// The channel execution route: pipeline stages as persistent workers
// connected by bounded lock-free SPSC rings (rt::SpscQueue) carrying
// block-completion tokens — the process-network alternative to the
// task-depend route (Alias, *Improving Communication Patterns in
// Polyhedral Process Networks*). ChannelPipeline is its only front end:
// it compiles a TaskProgram onto the engine once and replays it.
//
// One stage per statement (chain fusion inside a statement reduces the
// token traffic but never merges statements), except that a source
// statement — a relaxed reduction whose partial blocks (at least 2) have
// no in-dependency, such as an accumulation over an input array — splits
// into min(blocks, workers) lane stages that run its partials in
// parallel, its combine last on the first lane (codegen::stageLayout).
// Stage workers run a cooperative state
// machine: a stage executes its next task once
//   * every in-edge delivered the tokens the task's eq.-4 requirement
//     asks for (tokens are drained eagerly into a counter at every poll,
//     so a full ring never wedges the producer), and
//   * every out-edge ring has a free slot (checked *before* executing —
//     the push after the task body can then never block).
// Stages are multiplexed round-robin onto the workers, so the engine
// degrades gracefully to one thread on small machines (one worker runs
// the whole network cooperatively on the calling thread, no spawns).
//
// There is no per-block task creation, no dependency hashing and no
// shared ready-counter cache lines: the only cross-thread traffic is the
// ring head/tail pair of each edge. Backpressure is by construction —
// a producer stage stalls (skips to another owned stage) when a ring is
// full, i.e. when its consumer genuinely fell behind by more than the
// sized capacity.
//
// Streaming: replayBatches() runs the whole network `numBatches` times
// with consecutive batches overlapped. Requirements shift by one
// producer-batch of tokens per batch, and a write-after-read barrier
// keeps the skew bounded: a stage may enter batch b+1 only after every
// direct consumer finished batch b (one ack token per edge and batch on
// a small reverse ring) — the same skew-<=-1 guarantee the replay
// graph's anti tokens give, so with shared state the result equals
// back-to-back replay() calls, exactly like CompiledPipeline.
//
// Ring capacities come from the communication analysis
// (pipeline::analyzeCommunication): the per-edge peak in-flight token
// count of the ASAP lockstep schedule, so a consumer keeping pace never
// stalls its producer. Edges without an analyzed capacity get 8 slots.

#include "codegen/task_program.hpp"
#include "pipeline/comm.hpp"
#include "runtime/placement.hpp"
#include "tasking/replay_executor.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pipoly::tasking {

struct ChannelOptions {
  /// Worker threads for the stage state machines, and the lane count a
  /// source statement splits into (at most this many stages). 0 =
  /// hardware concurrency (codegen::channelWorkers). The engine runs
  /// min(stage count, this) workers. 1 runs the whole network, one stage
  /// per statement, cooperatively on the calling thread (no worker
  /// spawns at all).
  unsigned numWorkers = 0;
};

/// A TaskProgram compiled onto the channel engine: built once (stages,
/// edges, rings), replayed many times. The persistent workers start on
/// the first replay (a `channel.spawn` span) and live until destruction,
/// so a pipeline that is never replayed starts no thread. The same
/// ownership and non-reentrancy contracts as CompiledPipeline.
class ChannelPipeline {
public:
  using Options = ChannelOptions;

  /// `comm` (optional, borrowed only during construction) sizes the
  /// per-edge rings; its edges are keyed by statement pair.
  explicit ChannelPipeline(std::shared_ptr<const codegen::TaskProgram> program,
                           Options options = {},
                           const pipeline::CommInfo* comm = nullptr);
  explicit ChannelPipeline(codegen::TaskProgram program, Options options = {},
                           const pipeline::CommInfo* comm = nullptr);
  ~ChannelPipeline();

  ChannelPipeline(const ChannelPipeline&) = delete;
  ChannelPipeline& operator=(const ChannelPipeline&) = delete;

  const codegen::TaskProgram& program() const { return *program_; }
  std::size_t numStages() const;
  unsigned numWorkers() const;
  /// Per stage, the statement it runs (a split statement's lanes are
  /// consecutive stages).
  const std::vector<std::size_t>& stmtOfStage() const { return stmtOf_; }

  /// The stage placement the engine runs with (rt::placeStages: owned
  /// stages per worker, load and cross-worker byte diagnostics). Stable
  /// for the pipeline's lifetime.
  const rt::Placement& placement() const;

  /// One run of the program through the channel network.
  void replay(const StatementExecutor& exec);

  /// Streams `numBatches` runs with bounded batch skew (see above).
  void replayBatches(std::size_t numBatches,
                     const BatchStatementExecutor& exec);

  struct Stats {
    std::uint64_t replays = 0; // replay() + replayBatches() calls
    std::uint64_t batches = 0;
    std::uint64_t tokensPushed = 0;
    /// Polls where a stage could not run its next task: a full out-ring
    /// (backpressure) / missing in-tokens / missing batch acks.
    std::uint64_t pushStalls = 0;
    std::uint64_t tokenWaits = 0;
    std::uint64_t ackWaits = 0;
  };
  Stats stats() const;

  /// Bytes held between replays: ring storage, stage/edge tables.
  std::size_t retainedBytes() const;

private:
  std::shared_ptr<const codegen::TaskProgram> program_;
  /// Per stage, the program's tasks in stage-local position order.
  std::vector<std::vector<const codegen::Task*>> taskAt_;
  std::vector<std::size_t> stmtOf_;
  std::unique_ptr<class ChannelEngine> engine_;
};

} // namespace pipoly::tasking
