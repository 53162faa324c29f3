#include "tasking/replay_executor.hpp"

#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace pipoly::tasking {

namespace {

/// The per-run payload handed to the frozen graph: the program is stable
/// across replays, the executor changes per call. Graph batch b is the
/// caller's batch firstBatch + b.
struct ReplayRun {
  const codegen::TaskProgram* program;
  const BatchStatementExecutor* exec;
  std::size_t firstBatch;
};

void runGraphNode(void* context, rt::ReplayGraph::NodeId node,
                  std::size_t batch) {
  const ReplayRun& run = *static_cast<ReplayRun*>(context);
  const codegen::Task& task = run.program->tasks[node];
  for (const pb::TupleView it : task.iterations)
    (*run.exec)(run.firstBatch + batch, task.stmtIdx, it);
}

/// The body of the orchestration measurement: the graph's token traffic,
/// wakeups and hand-offs with no work in between.
void emptyGraphNode(void*, rt::ReplayGraph::NodeId, std::size_t) {}

/// Adapts a single-run StatementExecutor to the batch signature without
/// re-wrapping per task.
BatchStatementExecutor dropBatch(const StatementExecutor& exec) {
  return [&exec](std::size_t, std::size_t stmtIdx, const pb::Tuple& it) {
    exec(stmtIdx, it);
  };
}

} // namespace

ReplayPrice priceReplay(const codegen::TaskProgram& program,
                        const opt::SlotTable& slots,
                        const std::vector<double>& iterationCost,
                        unsigned workers) {
  PIPOLY_CHECK(workers >= 1);
  sim::CostModel model;
  model.iterationCost = iterationCost;
  const sim::SimResult sim =
      sim::simulate(program, slots, model, sim::SimConfig{workers});

  // The costliest chain through one statement's blocks: the critical
  // path over same-statement edges only.
  const std::size_t n = program.tasks.size();
  std::vector<double> chain(n, 0.0);
  double longest = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const codegen::Task& task = program.tasks[i];
    double start = 0.0;
    for (const std::uint32_t* s = slots.inBegin(i); s != slots.inEnd(i); ++s)
      if (program.tasks[*s].stmtIdx == task.stmtIdx)
        start = std::max(start, chain[*s]);
    chain[i] = start + model.taskCost(task);
    longest = std::max(longest, chain[i]);
  }

  ReplayPrice price;
  price.workers = workers;
  price.inOrder = sim.totalWork;
  price.makespan = sim.makespan;
  price.batchBound =
      std::max(sim.totalWork / static_cast<double>(workers), longest);
  return price;
}

ReplayChoice chooseReplayRoute(const ReplayPrice& price, std::size_t batches) {
  PIPOLY_CHECK(batches >= 1);
  const double n = static_cast<double>(batches);
  ReplayChoice choice;
  choice.batches = batches;
  choice.inOrder = n * price.inOrder;
  choice.pool =
      n * price.orchestration + price.makespan + (n - 1.0) * price.batchBound;
  choice.route = choice.pool < kPoolMargin * choice.inOrder
                     ? ReplayRoute::Pool
                     : ReplayRoute::InOrder;
  return choice;
}

bool poolCanPay(const ReplayPrice& price) {
  return price.orchestration + price.batchBound < kPoolMargin * price.inOrder;
}

/// Checked non-reentrancy: overlapping replays on one instance would
/// share the graph's ready counters.
class CompiledPipeline::ReplayGuard {
public:
  explicit ReplayGuard(CompiledPipeline& self) : self_(self) {
    PIPOLY_CHECK_MSG(!self_.replaying_.exchange(true),
                     "overlapping replay calls on one CompiledPipeline");
  }
  ~ReplayGuard() { self_.replaying_.store(false); }

private:
  CompiledPipeline& self_;
};

CompiledPipeline::CompiledPipeline(
    std::shared_ptr<const codegen::TaskProgram> program, Options options)
    : program_(std::move(program)), options_(options) {
  PIPOLY_CHECK_MSG(program_ != nullptr,
                   "CompiledPipeline needs a non-null program (it keeps the "
                   "program alive for the tasks' raw pointers)");
  compile(nullptr);
}

CompiledPipeline::CompiledPipeline(
    std::shared_ptr<const codegen::TaskProgram> program,
    const opt::SlotTable& slots, Options options)
    : program_(std::move(program)), options_(options) {
  PIPOLY_CHECK_MSG(program_ != nullptr,
                   "CompiledPipeline needs a non-null program (it keeps the "
                   "program alive for the tasks' raw pointers)");
  PIPOLY_CHECK_MSG(slots.compatibleWith(*program_),
                   "slot table does not match the task program");
  compile(&slots);
}

CompiledPipeline::CompiledPipeline(codegen::TaskProgram program,
                                   Options options)
    : CompiledPipeline(std::make_shared<const codegen::TaskProgram>(
                           std::move(program)),
                       options) {}

void CompiledPipeline::compile(const opt::SlotTable* slots) {
  trace::Span span("replay.compile");
  numThreads_ = options_.numThreads != 0
                    ? options_.numThreads
                    : std::max(1u, std::thread::hardware_concurrency());

  const std::size_t n = program_->tasks.size();
  // Every in-dependency's producer, in CSR form: the caller's slot table
  // or one built from the program's producer ids.
  opt::SlotTable built;
  if (slots == nullptr) {
    built = opt::buildSlotTable(*program_);
    slots = &built;
  }

  std::vector<rt::ReplayGraph::NodeId> preds;
  for (std::size_t i = 0; i < n; ++i) {
    preds.assign(slots->inBegin(i), slots->inEnd(i));
    graph_.addNode(preds);
  }
  // One batch group per statement: forward reads inside a statement's
  // iteration space (self neighbourhoods) make later blocks batch-b
  // writers of data earlier blocks read in batch b+1 — a backward
  // dependence no RAW edge captures. Grouping keeps each statement
  // batch-serial while statements still overlap, matching the channel
  // route's stage semantics (see ReplayGraph's class comment).
  {
    const std::size_t numStmts = program_->numStatements;
    std::vector<std::vector<rt::ReplayGraph::NodeId>> byStmt(numStmts);
    for (std::size_t i = 0; i < n; ++i)
      byStmt[program_->tasks[i].stmtIdx].push_back(
          static_cast<rt::ReplayGraph::NodeId>(i));
    std::vector<std::uint32_t> stmtGroup;
    stmtGroup.reserve(numStmts);
    for (const std::vector<rt::ReplayGraph::NodeId>& members : byStmt)
      stmtGroup.push_back(graph_.addBatchGroup(members));

    // Cross-statement anti edges: a writer statement may not start batch
    // b+1 before every statement reading its output finished batch b.
    // The per-node anti tokens cover direct graph consumers only, and
    // transitive reduction can remove ALL direct edges between a
    // producer/reader pair whose block edges are implied by a longer
    // path — statementReadership carries the relation independently.
    const std::vector<std::vector<std::size_t>> readers =
        codegen::statementReadership(*program_);
    for (std::size_t s = 0; s < numStmts; ++s)
      for (std::size_t r : readers[s])
        if (r != s && stmtGroup[s] != rt::ReplayGraph::kNoGroup &&
            stmtGroup[r] != rt::ReplayGraph::kNoGroup)
          graph_.addGroupAntiEdge(stmtGroup[r], stmtGroup[s]);
  }
  graph_.freeze();

  // Linear chain: task 0 is free and task i depends exactly on i - 1.
  linear_ = true;
  for (std::size_t i = 0; i < n && linear_; ++i) {
    const std::size_t k = slots->inCount(i);
    if (i == 0)
      linear_ = k == 0;
    else
      linear_ = k == 1 && *slots->inBegin(i) == i - 1;
  }
}

void CompiledPipeline::ensurePool() {
  if (!pool_)
    pool_ = std::make_unique<rt::DependencyThreadPool>(numThreads_);
}

void CompiledPipeline::runSerial(std::size_t firstBatch,
                                 std::size_t numBatches,
                                 const BatchStatementExecutor& exec) {
  // Creation order is a valid topological order of any TaskProgram
  // (validated: in-dependencies name earlier tasks), so the in-order
  // loop is a legal schedule; batches follow each other unoverlapped.
  for (std::size_t b = firstBatch; b < firstBatch + numBatches; ++b)
    for (const codegen::Task& task : program_->tasks)
      for (const pb::TupleView it : task.iterations)
        exec(b, task.stmtIdx, it);
}

void CompiledPipeline::calibrate(const BatchStatementExecutor& exec) {
  trace::Span span("replay.calibrate");
  const Stopwatch watch;

  // Batch 0 in creation order, one clock reading per task. Nothing is
  // kept if a body throws: the next call calibrates again.
  using Clock = std::chrono::steady_clock;
  const std::size_t numStmts = program_->numStatements;
  std::vector<double> seconds(numStmts, 0.0), iterations(numStmts, 0.0);
  Clock::time_point last = Clock::now();
  for (const codegen::Task& task : program_->tasks) {
    for (const pb::TupleView it : task.iterations)
      exec(0, task.stmtIdx, it);
    const Clock::time_point now = Clock::now();
    seconds[task.stmtIdx] += std::chrono::duration<double>(now - last).count();
    iterations[task.stmtIdx] += static_cast<double>(task.iterations.size());
    last = now;
  }
  std::vector<double> iterationCost(numStmts, 0.0);
  for (std::size_t s = 0; s < numStmts; ++s)
    if (iterations[s] > 0.0)
      iterationCost[s] = seconds[s] / iterations[s];

  // The frozen graph's predecessor lists are the program's slot table.
  opt::SlotTable slots;
  slots.numSlots = static_cast<std::uint32_t>(graph_.size());
  slots.inSlots.assign(graph_.predecessors().begin(),
                       graph_.predecessors().end());
  slots.inOffsets.assign(graph_.predOffsets().begin(),
                         graph_.predOffsets().end());
  ReplayPrice price = priceReplay(*program_, slots, iterationCost, numThreads_);

  // Orchestration is measured only where compute alone could pay: the
  // second of two empty-body runs, so thread start-up is not counted.
  if (poolCanPay(price)) {
    ensurePool();
    pool_->runGraph(graph_, 1, &emptyGraphNode, nullptr);
    const Stopwatch orchestration;
    pool_->runGraph(graph_, 1, &emptyGraphNode, nullptr);
    price.orchestration = orchestration.seconds();
  }
  if (!poolCanPay(price))
    pool_.reset(); // no batch count can use it: release idle workers

  stats_.price = price;
  stats_.choice = ReplayChoice{};
  stats_.calibrationSeconds = watch.seconds();
  ++stats_.calibrations;
}

const ReplayChoice& CompiledPipeline::choiceFor(std::size_t numBatches) {
  if (stats_.choice.batches != numBatches) {
    const ReplayChoice& c = stats_.choice =
        chooseReplayRoute(stats_.price, numBatches);
    trace::instant(c.route == ReplayRoute::Pool ? "replay.route.pool"
                                                : "replay.route.in_order",
                   stats_.price.workers);
    trace::counter("replay.route.batches", static_cast<double>(c.batches));
    trace::counter("replay.route.in_order_s", c.inOrder);
    trace::counter("replay.route.orchestration_s", stats_.price.orchestration);
    trace::counter("replay.route.simulated_s", stats_.price.makespan);
    trace::counter("replay.route.pool_s", c.pool);
  }
  return stats_.choice;
}

void CompiledPipeline::runCalibrated(std::size_t numBatches,
                                     const BatchStatementExecutor& exec) {
  std::size_t first = 0;
  if (stats_.calibrations == 0) {
    calibrate(exec);
    first = 1;
  }
  const ReplayChoice& choice = choiceFor(numBatches);
  took(choice.route, RouteReason::Calibrated);
  if (first == numBatches)
    return;
  if (choice.route == ReplayRoute::InOrder) {
    runSerial(first, numBatches - first, exec);
    return;
  }
  ensurePool();
  ReplayRun run{program_.get(), &exec, first};
  pool_->runGraph(graph_, numBatches - first, &runGraphNode, &run);
}

void CompiledPipeline::replay(const StatementExecutor& exec) {
  ReplayGuard guard(*this);
  trace::Span span("replay.run");
  ++stats_.replays;
  const BatchStatementExecutor batched = dropBatch(exec);
  if (linear_ || numThreads_ == 1 || program_->tasks.size() <= 1) {
    ++stats_.linearReplays;
    took(ReplayRoute::InOrder, linear_            ? RouteReason::LinearChain
                               : numThreads_ == 1 ? RouteReason::OneWorker
                                                  : RouteReason::FewTasks);
    runSerial(0, 1, batched);
    return;
  }
  if (options_.numThreads == 0) {
    runCalibrated(1, batched);
    return;
  }
  took(ReplayRoute::Pool, RouteReason::Explicit);
  ensurePool();
  ReplayRun run{program_.get(), &batched, 0};
  pool_->runGraph(graph_, 1, &runGraphNode, &run);
}

void CompiledPipeline::replayBatches(std::size_t numBatches,
                                     const BatchStatementExecutor& exec) {
  if (numBatches == 0)
    return;
  ReplayGuard guard(*this);
  trace::Span span("replay.stream");
  trace::counter("replay.batches", static_cast<double>(numBatches));
  stats_.batches += numBatches;
  // Streaming a linear chain is the classic Pipeflow case: parallelism
  // comes from overlapping batches, so the chain goes through the graph
  // machinery (or through the calibrated choice) — only a
  // single-threaded pipeline runs batches in order unconditionally.
  if (numThreads_ == 1 || program_->tasks.empty()) {
    took(ReplayRoute::InOrder, numThreads_ == 1 ? RouteReason::OneWorker
                                                : RouteReason::FewTasks);
    runSerial(0, numBatches, exec);
    return;
  }
  if (options_.numThreads == 0) {
    runCalibrated(numBatches, exec);
    return;
  }
  took(ReplayRoute::Pool, RouteReason::Explicit);
  ensurePool();
  ReplayRun run{program_.get(), &exec, 0};
  pool_->runGraph(graph_, numBatches, &runGraphNode, &run);
}

std::size_t CompiledPipeline::retainedBytes() const {
  return graph_.storageBytes();
}

} // namespace pipoly::tasking
