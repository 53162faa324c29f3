#include "tasking/channel_backend.hpp"

#include "runtime/placement.hpp"
#include "runtime/spsc_queue.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pipoly::tasking {

namespace {

/// A stage worker's backoff ladder (ChannelEngine::runStages): it spins
/// for the first kSpinCap idle polls, yields until kBackoffCap, then
/// sleeps 50us per poll.
constexpr unsigned kSpinCap = 64;
constexpr unsigned kBackoffCap = 16384;

/// Ring capacity for edges the communication analysis did not size.
constexpr std::uint32_t kDefaultCapacitySlots = 8;

} // namespace

/// The stage/edge state machines plus the persistent worker threads,
/// owned by ChannelPipeline (stages = codegen::stageLayout's statements
/// and lanes of a TaskProgram, see buildProgramPlan).
class ChannelEngine {
public:
  /// One directed channel: producer stage `src` feeds consumer `tgt`.
  /// `reqTokens[k]` is the number of src tokens consumer task k needs
  /// before it may run (0 = unconstrained). The builder monotonizes the
  /// vector (running max): tasks run in order within a stage, so waiting
  /// for the max-so-far adds no delay, and it guarantees the last task
  /// of a batch needs that batch's tokens — which bounds the number of
  /// outstanding batch acks to the reverse ring's capacity.
  struct EdgeSpec {
    std::size_t src = 0;
    std::size_t tgt = 0;
    std::uint32_t capacitySlots = 2;
    /// Traffic estimate for worker placement (bytes per batch when the
    /// communication analysis supplied it, 1 otherwise — edge count).
    std::uint64_t weightBytes = 1;
    /// No forward tokens — only the per-batch ack flows (tgt back to
    /// src). Carries the write-after-read constraint for a reader whose
    /// forward block edges transitive reduction removed entirely: the
    /// reader still gets the data (in-batch ordering holds transitively
    /// through the surviving chain), but without the ack the producer
    /// would overwrite it batches ahead of the read.
    bool ackOnly = false;
    std::vector<std::uint64_t> reqTokens;
  };

  /// Runs one task: stage-local position `pos` of `stage`, batch `batch`.
  using TaskRunner =
      std::function<void(std::size_t stage, std::size_t pos,
                         std::size_t batch)>;

  ChannelEngine(std::vector<std::size_t> stageTasks,
                std::vector<EdgeSpec> specs, const ChannelOptions& options) {
    const std::size_t numStages = stageTasks.size();
    for (std::size_t s = 0; s < numStages; ++s) {
      stages_.emplace_back();
      stages_.back().numTasks = stageTasks[s];
    }
    // Validate and monotonize the specs up front.
    for (EdgeSpec& spec : specs) {
      PIPOLY_CHECK_MSG(spec.src < numStages && spec.tgt < numStages &&
                           spec.src != spec.tgt,
                       "channel edge endpoints out of range");
      PIPOLY_CHECK_MSG(spec.reqTokens.size() == stageTasks[spec.tgt],
                       "channel edge requirement vector size mismatch");
      std::uint64_t runningMax = 0;
      for (std::uint64_t& r : spec.reqTokens)
        r = runningMax = std::max(runningMax, r);
    }
    PIPOLY_CHECK_MSG(options.numWorkers != 0,
                     "ChannelEngine needs a resolved worker count");
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        options.numWorkers, std::max<std::size_t>(numStages, 1)));
    numWorkers_ = workers;

    std::vector<rt::StageEdge> weightedEdges;
    weightedEdges.reserve(specs.size());
    for (const EdgeSpec& spec : specs)
      weightedEdges.push_back(
          {spec.src, spec.tgt,
           std::max<std::uint64_t>(spec.weightBytes, 1)});
    placement_ = rt::placeStages(stageTasks, workers, weightedEdges);

    for (EdgeSpec& spec : specs) {
      // Token-ring sizing: comm-derived capacitySlots is a lower bound
      // (it models data slots: the ASAP no-stall guarantee), but the
      // ring itself carries 4-byte block indices, not data — the data
      // lives in the arrays, whose footprint the batch acks already
      // bound to one batch of skew. Sizing the ring below a producer
      // batch therefore saves nothing and forces a consumer handoff
      // every few tasks, which on an oversubscribed host is a context
      // switch each. Two batches of tokens can be outstanding (producer
      // one batch ahead, consumer not yet drained), hence the factor.
      const std::uint32_t idx = static_cast<std::uint32_t>(edges_.size());
      const std::uint64_t tokenCapacity = std::max<std::uint64_t>(
          spec.capacitySlots,
          std::min<std::size_t>(2 * stageTasks[spec.src] + 2, UINT32_MAX));
      edges_.emplace_back(spec.src, spec.tgt,
                          static_cast<std::uint32_t>(tokenCapacity),
                          spec.ackOnly, std::move(spec.reqTokens));
      stages_[spec.src].outEdges.push_back(idx);
      stages_[spec.tgt].inEdges.push_back(idx);
    }
  }

  ~ChannelEngine() { stopWorkers(); }

  std::size_t numStages() const { return stages_.size(); }
  unsigned numWorkers() const { return numWorkers_; }
  const rt::Placement& placement() const { return placement_; }

  void run(std::size_t numBatches, const TaskRunner& runner) {
    if (numBatches == 0)
      return;
    PIPOLY_CHECK_MSG(!running_.exchange(true),
                     "overlapping runs on one channel engine");
    struct Release {
      std::atomic<bool>& flag;
      ~Release() { flag.store(false); }
    } release{running_};

    resetRuntime(numBatches, &runner);
    stats_.replays += 1;
    stats_.batches += numBatches;
    if (stages_.empty())
      return;
    if (numWorkers_ == 1) {
      WorkerStats local;
      runStages(placement_.ownedStages[0], local);
      mergeStats(local);
    } else {
      if (threads_.empty())
        startWorkers();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        remaining_ = threads_.size();
        ++runGen_;
      }
      cv_.notify_all();
      std::unique_lock<std::mutex> lock(mutex_);
      doneCv_.wait(lock, [this] { return remaining_ == 0; });
    }
    if (firstError_ != nullptr) {
      std::exception_ptr error = firstError_;
      firstError_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  ChannelPipeline::Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  std::size_t retainedBytes() const {
    std::size_t bytes = 0;
    for (const Edge& e : edges_)
      bytes += e.ring.storageBytes() + e.ack.storageBytes() +
               e.reqTokens.capacity() * sizeof(std::uint64_t);
    for (const Stage& s : stages_)
      bytes += (s.inEdges.capacity() + s.outEdges.capacity()) *
               sizeof(std::uint32_t);
    bytes += stages_.size() * sizeof(Stage) + edges_.size() * sizeof(Edge);
    return bytes;
  }

private:
  struct Stage {
    std::size_t numTasks = 0;
    std::vector<std::uint32_t> inEdges;
    std::vector<std::uint32_t> outEdges;
    // Run state, owned by the stage's worker while a run is active.
    std::size_t batch = 0;
    std::size_t pos = 0;
    std::atomic<bool> finished{false};
  };

  struct Edge {
    Edge(std::size_t srcStage, std::size_t tgtStage, std::uint32_t capacity,
         bool ackOnlyEdge, std::vector<std::uint64_t> req)
        : src(srcStage), tgt(tgtStage), ackOnly(ackOnlyEdge),
          reqTokens(std::move(req)), ring(ackOnlyEdge ? 2 : capacity),
          ack(2) {}

    std::size_t src;
    std::size_t tgt;
    bool ackOnly;
    std::vector<std::uint64_t> reqTokens;
    rt::SpscQueue<std::uint32_t> ring; // forward: block-completion tokens
    rt::SpscQueue<std::uint8_t> ack;   // reverse: one token per batch
    // Producer-side counters (written only by src's worker).
    std::uint64_t pushed = 0;
    std::uint64_t acksSeen = 0;
    // Consumer-side counter (written only by tgt's worker).
    std::uint64_t received = 0;
  };

  struct WorkerStats {
    std::uint64_t tokensPushed = 0;
    std::uint64_t pushStalls = 0;
    std::uint64_t tokenWaits = 0;
    std::uint64_t ackWaits = 0;
  };

  void resetRuntime(std::size_t numBatches, const TaskRunner* runner) {
    numBatches_ = numBatches;
    runner_ = runner;
    abort_.store(false, std::memory_order_relaxed);
    for (Stage& s : stages_) {
      s.batch = 0;
      s.pos = 0;
      s.finished.store(false, std::memory_order_relaxed);
    }
    for (Edge& e : edges_) {
      e.pushed = 0;
      e.acksSeen = 0;
      e.received = 0;
      e.ring.resetUnsafe();
      e.ack.resetUnsafe();
    }
  }

  void mergeStats(const WorkerStats& local) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.tokensPushed += local.tokensPushed;
    stats_.pushStalls += local.pushStalls;
    stats_.tokenWaits += local.tokenWaits;
    stats_.ackWaits += local.ackWaits;
  }

  /// One worker runs the whole network cooperatively on the calling
  /// thread; threads exist only when there is real parallelism to host,
  /// and only from the first run on, so an engine that is built but never
  /// run (a set-up pass, a route that is not chosen) starts none. A
  /// failed spawn joins the workers already started, so the next run
  /// tries again from scratch.
  void startWorkers() {
    trace::Span span("channel.spawn");
    threads_.reserve(numWorkers_);
    try {
      for (unsigned w = 0; w < numWorkers_; ++w)
        threads_.emplace_back([this, w, gen = runGen_] { workerMain(w, gen); });
    } catch (...) {
      stopWorkers();
      throw;
    }
  }

  void stopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_)
      t.join();
    threads_.clear();
    stop_ = false;
  }

  /// `seenGen` is the run generation at spawn: the worker waits for the
  /// next one.
  void workerMain(unsigned w, std::uint64_t seenGen) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || runGen_ > seenGen; });
        if (stop_)
          return;
        seenGen = runGen_;
      }
      WorkerStats local;
      runStages(placement_.ownedStages[w], local);
      mergeStats(local);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0)
          doneCv_.notify_all();
      }
    }
  }

  void runStages(const std::vector<std::size_t>& owned, WorkerStats& local) {
    unsigned idle = 0;
    for (;;) {
      if (abort_.load(std::memory_order_relaxed)) {
        // Unwedge producers blocked on our rings, then bail out.
        for (const std::size_t si : owned)
          stages_[si].finished.store(true, std::memory_order_release);
        return;
      }
      bool progress = false;
      bool allDone = true;
      for (const std::size_t si : owned) {
        Stage& st = stages_[si];
        if (st.finished.load(std::memory_order_relaxed))
          continue;
        try {
          progress |= advanceStage(si, local);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (firstError_ == nullptr)
              firstError_ = std::current_exception();
          }
          abort_.store(true, std::memory_order_release);
        }
        if (st.batch >= numBatches_)
          st.finished.store(true, std::memory_order_release);
        else
          allDone = false;
      }
      if (allDone)
        return;
      if (progress) {
        idle = 0;
      } else if (++idle < kSpinCap) {
        // Tight spin: tokens usually arrive within a few polls.
      } else if (idle < kBackoffCap) {
        // Long yield phase before sleeping: on an oversubscribed host a
        // yield IS the handoff to the peer stage's worker (one scheduler
        // pass), while a timed sleep parks this worker for a fixed 50us
        // regardless of when the token arrives — at one batch of skew
        // that sleep lands on the critical path of every batch.
        std::this_thread::yield();
      } else {
        // Genuinely stalled: stop burning the core.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Runs as many consecutive tasks of stage `si` as are currently
  /// unblocked. Returns whether anything ran.
  bool advanceStage(std::size_t si, WorkerStats& local) {
    Stage& st = stages_[si];
    bool progress = false;
    while (st.batch < numBatches_) {
      // Drain every in-ring into the received counters first: tokens are
      // pure counts, so consuming early is always sound, and it frees
      // producers even while this stage itself is blocked.
      for (const std::uint32_t ei : st.inEdges) {
        Edge& e = edges_[ei];
        while (e.ring.tryPop())
          ++e.received;
      }
      // Write-after-read batch barrier: batch b starts only after every
      // direct consumer acked batch b-1.
      if (st.pos == 0 && st.batch > 0) {
        bool acksOk = true;
        for (const std::uint32_t ei : st.outEdges) {
          Edge& e = edges_[ei];
          while (e.ack.tryPop())
            ++e.acksSeen;
          if (e.acksSeen < st.batch)
            acksOk = false;
        }
        if (!acksOk) {
          ++local.ackWaits;
          break;
        }
      }
      // The eq.-4 requirement of the next task, shifted by one producer
      // batch of tokens per streamed batch.
      bool tokensOk = true;
      for (const std::uint32_t ei : st.inEdges) {
        Edge& e = edges_[ei];
        if (e.ackOnly) // no forward tokens ever flow on an ack-only edge
          continue;
        const std::uint64_t need =
            static_cast<std::uint64_t>(st.batch) * stages_[e.src].numTasks +
            e.reqTokens[st.pos];
        if (e.received < need)
          tokensOk = false;
      }
      if (!tokensOk) {
        ++local.tokenWaits;
        break;
      }
      // Space on every out-ring, checked before running the task: the
      // pushes after the body can then never block. A finished consumer
      // stopped draining, but also no longer needs tokens.
      bool spaceOk = true;
      for (const std::uint32_t ei : st.outEdges) {
        Edge& e = edges_[ei];
        if (!e.ackOnly &&
            !stages_[e.tgt].finished.load(std::memory_order_acquire) &&
            !e.ring.canPush()) {
          spaceOk = false;
          break;
        }
      }
      if (!spaceOk) {
        ++local.pushStalls;
        break;
      }
      (*runner_)(si, st.pos, st.batch);
      for (const std::uint32_t ei : st.outEdges) {
        Edge& e = edges_[ei];
        if (e.ackOnly)
          continue;
        ++e.pushed;
        ++local.tokensPushed;
        if (!e.ring.tryPush(static_cast<std::uint32_t>(st.pos)))
          PIPOLY_CHECK_MSG(
              stages_[e.tgt].finished.load(std::memory_order_acquire),
              "SPSC push failed with a live consumer");
      }
      if (++st.pos == st.numTasks) {
        st.pos = 0;
        // Ack the finished batch upstream — except after the final
        // batch, which nobody waits for (every ring ends the run empty).
        if (st.batch + 1 < numBatches_)
          for (const std::uint32_t ei : st.inEdges) {
            const bool pushed = edges_[ei].ack.tryPush(1);
            PIPOLY_CHECK_MSG(pushed, "batch-ack ring overflow");
          }
        ++st.batch;
      }
      progress = true;
    }
    return progress;
  }

  std::deque<Stage> stages_;
  std::deque<Edge> edges_;
  rt::Placement placement_;
  std::vector<std::thread> threads_;
  unsigned numWorkers_ = 1;

  // Per-run state, published under mutex_ before workers wake.
  std::size_t numBatches_ = 0;
  const TaskRunner* runner_ = nullptr;
  std::atomic<bool> abort_{false};
  std::atomic<bool> running_{false};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  std::uint64_t runGen_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr firstError_;
  ChannelPipeline::Stats stats_;
};

namespace {

/// Stage/edge plan of a TaskProgram on codegen::stageLayout's stages,
/// tasks in creation order within their stage.
struct ProgramPlan {
  std::vector<std::size_t> stageTasks;
  std::vector<std::size_t> stmtOf;
  std::vector<ChannelEngine::EdgeSpec> edges;
  std::vector<std::vector<const codegen::Task*>> taskAt;
};

ProgramPlan buildProgramPlan(const codegen::TaskProgram& program,
                             const pipeline::CommInfo* comm,
                             unsigned workers) {
  ProgramPlan plan;
  const codegen::StageLayout layout = codegen::stageLayout(program, workers);
  const std::vector<std::size_t>& stmtOf = layout.stmtOf;
  plan.stageTasks = layout.stageTasks;
  plan.stmtOf = stmtOf;
  plan.taskAt.resize(stmtOf.size());
  for (std::size_t i = 0; i < program.tasks.size(); ++i)
    plan.taskAt[layout.place[i].first].push_back(&program.tasks[i]);

  // One channel per (src, tgt) stage pair, created on first use.
  std::unordered_map<std::uint64_t, std::size_t> channelIndex;
  const auto key = [](std::size_t src, std::size_t tgt) {
    return (static_cast<std::uint64_t>(src) << 32) | tgt;
  };
  const auto channel = [&](std::size_t src,
                           std::size_t tgt) -> ChannelEngine::EdgeSpec& {
    const auto [it, fresh] =
        channelIndex.try_emplace(key(src, tgt), plan.edges.size());
    if (fresh) {
      ChannelEngine::EdgeSpec spec;
      spec.src = src;
      spec.tgt = tgt;
      spec.reqTokens.assign(plan.stageTasks[tgt], 0);
      plan.edges.push_back(std::move(spec));
    }
    return plan.edges[it->second];
  };

  // Cross-stage dependencies become per-edge token requirements: task
  // `pos` of stage `tgt` depending on task `srcPos` of stage `src` needs
  // srcPos + 1 tokens on the (src, tgt) channel; a same-stage dependency
  // is covered by in-order execution within the stage.
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const auto [stage, pos] = layout.place[i];
    for (const codegen::TaskDep& dep : program.tasks[i].in) {
      PIPOLY_CHECK_MSG(dep.producer < i,
                       "in-dependency without an earlier producing task");
      const auto [srcStage, srcPos] = layout.place[dep.producer];
      PIPOLY_CHECK_MSG(srcStage != stage || srcPos < pos,
                       "same-stage dependency does not point backwards");
      if (srcStage == stage)
        continue;
      std::uint64_t& req = channel(srcStage, stage).reqTokens[pos];
      req = std::max(req, static_cast<std::uint64_t>(srcPos + 1));
    }
  }
  for (ChannelEngine::EdgeSpec& spec : plan.edges) {
    const std::size_t src = stmtOf[spec.src];
    const std::size_t tgt = stmtOf[spec.tgt];
    spec.capacitySlots =
        comm != nullptr ? comm->capacityFor(src, tgt, kDefaultCapacitySlots)
                        : kDefaultCapacitySlots;
    if (comm != nullptr)
      if (const pipeline::EdgeComm* edge = comm->edge(src, tgt))
        spec.weightBytes = std::max<std::uint64_t>(edge->totalBytes, 1);
  }

  // Write-after-read coverage for reader pairs with no surviving forward
  // edge (transitive reduction removes block edges implied by a longer
  // path, but the reader still consumes the producer's arrays): an
  // ack-only channel carries the reader's per-batch release back to the
  // producer so it cannot lap a distant reader. See EdgeSpec::ackOnly.
  // A split statement's first stage holds its combine, the only task of
  // it that another statement reads or is reached from.
  const std::vector<std::size_t>& stageOf = layout.stageOf;
  const std::vector<std::vector<std::size_t>> readership =
      codegen::statementReadership(program);
  for (std::size_t s = 0; s < readership.size(); ++s) {
    if (stageOf[s] == SIZE_MAX)
      continue;
    for (std::size_t r : readership[s]) {
      if (r == s || stageOf[r] == SIZE_MAX ||
          channelIndex.count(key(stageOf[s], stageOf[r])) != 0)
        continue;
      channel(stageOf[s], stageOf[r]).ackOnly = true;
    }
  }
  return plan;
}

} // namespace

ChannelPipeline::ChannelPipeline(
    std::shared_ptr<const codegen::TaskProgram> program, Options options,
    const pipeline::CommInfo* comm)
    : program_(std::move(program)) {
  PIPOLY_CHECK_MSG(program_ != nullptr,
                   "ChannelPipeline needs a non-null program (it keeps the "
                   "program alive for the tasks' raw pointers)");
  trace::Span span("channel.compile");
  // Lanes are sized by the requested count (hardware concurrency for 0);
  // the engine then runs at most one worker per stage.
  options.numWorkers = codegen::channelWorkers(options.numWorkers);
  ProgramPlan plan = buildProgramPlan(*program_, comm, options.numWorkers);
  taskAt_ = std::move(plan.taskAt);
  stmtOf_ = std::move(plan.stmtOf);
  std::vector<std::size_t> stmts = stmtOf_;
  stmts.erase(std::unique(stmts.begin(), stmts.end()), stmts.end());
  trace::counter("channel.stages", static_cast<double>(stmtOf_.size()));
  trace::counter("channel.lanes",
                 static_cast<double>(stmtOf_.size() - stmts.size()));
  engine_ = std::make_unique<ChannelEngine>(
      std::move(plan.stageTasks), std::move(plan.edges), options);
  const rt::Placement& placed = engine_->placement();
  trace::counter("channel.placement.workers",
                 static_cast<double>(engine_->numWorkers()));
  trace::counter("channel.placement.max_load",
                 static_cast<double>(placed.maxLoad));
  trace::counter("channel.placement.cross_worker_bytes",
                 static_cast<double>(placed.crossWorkerBytes));
}

ChannelPipeline::ChannelPipeline(codegen::TaskProgram program, Options options,
                                 const pipeline::CommInfo* comm)
    : ChannelPipeline(std::make_shared<const codegen::TaskProgram>(
                          std::move(program)),
                      options, comm) {}

ChannelPipeline::~ChannelPipeline() = default;

std::size_t ChannelPipeline::numStages() const { return engine_->numStages(); }
unsigned ChannelPipeline::numWorkers() const { return engine_->numWorkers(); }

const rt::Placement& ChannelPipeline::placement() const {
  return engine_->placement();
}

void ChannelPipeline::replay(const StatementExecutor& exec) {
  trace::Span span("channel.run");
  engine_->run(1, [this, &exec](std::size_t stage, std::size_t pos,
                                std::size_t) {
    const codegen::Task& task = *taskAt_[stage][pos];
    for (const pb::TupleView it : task.iterations)
      exec(task.stmtIdx, it);
  });
}

void ChannelPipeline::replayBatches(std::size_t numBatches,
                                    const BatchStatementExecutor& exec) {
  if (numBatches == 0)
    return;
  trace::Span span("channel.stream");
  trace::counter("channel.batches", static_cast<double>(numBatches));
  engine_->run(numBatches, [this, &exec](std::size_t stage, std::size_t pos,
                                         std::size_t batch) {
    const codegen::Task& task = *taskAt_[stage][pos];
    for (const pb::TupleView it : task.iterations)
      exec(batch, task.stmtIdx, it);
  });
}

ChannelPipeline::Stats ChannelPipeline::stats() const {
  return engine_->stats();
}

std::size_t ChannelPipeline::retainedBytes() const {
  std::size_t bytes = engine_->retainedBytes() +
                      stmtOf_.capacity() * sizeof(std::size_t);
  for (const std::vector<const codegen::Task*>& stage : taskAt_)
    bytes += stage.capacity() * sizeof(const codegen::Task*);
  return bytes;
}

} // namespace pipoly::tasking
