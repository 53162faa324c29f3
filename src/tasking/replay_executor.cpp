#include "tasking/replay_executor.hpp"

#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <thread>
#include <utility>

namespace pipoly::tasking {

namespace {

/// The per-run payload handed to the frozen graph: the program is stable
/// across replays, the executor changes per call.
struct ReplayRun {
  const codegen::TaskProgram* program;
  const BatchStatementExecutor* exec;
};

void runGraphNode(void* context, rt::ReplayGraph::NodeId node,
                  std::size_t batch) {
  const ReplayRun& run = *static_cast<ReplayRun*>(context);
  const codegen::Task& task = run.program->tasks[node];
  for (const pb::Tuple& it : task.iterations)
    (*run.exec)(batch, task.stmtIdx, it);
}

/// Adapts a single-run StatementExecutor to the batch signature without
/// re-wrapping per task.
BatchStatementExecutor dropBatch(const StatementExecutor& exec) {
  return [&exec](std::size_t, std::size_t stmtIdx, const pb::Tuple& it) {
    exec(stmtIdx, it);
  };
}

} // namespace

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
  // Resolve every in-dependency to its producer exactly once. With a
  // caller-provided slot table the producers are already interned (slot
  // id == producing task id); otherwise one hashed owner-index pass.
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

void CompiledPipeline::runSerial(std::size_t numBatches,
                                 const BatchStatementExecutor& exec) {
  // Creation order is a valid topological order of any TaskProgram
  // (validated: in-dependencies name earlier tasks), so the in-order
  // loop is a legal schedule; batches follow each other unoverlapped.
  for (std::size_t b = 0; b < numBatches; ++b)
    for (const codegen::Task& task : program_->tasks)
      for (const pb::Tuple& it : task.iterations)
        exec(b, task.stmtIdx, it);
}

void CompiledPipeline::replay(const StatementExecutor& exec) {
  ReplayGuard guard(*this);
  trace::Span span("replay.run");
  ++stats_.replays;
  const BatchStatementExecutor batched = dropBatch(exec);
  if (linear_ || numThreads_ == 1 || program_->tasks.size() <= 1) {
    ++stats_.linearReplays;
    runSerial(1, batched);
    return;
  }
  ensurePool();
  ReplayRun run{program_.get(), &batched};
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
  // machinery — only a single-threaded pipeline runs batches in-order.
  if (numThreads_ == 1 || program_->tasks.empty()) {
    runSerial(numBatches, exec);
    return;
  }
  ensurePool();
  ReplayRun run{program_.get(), &exec};
  pool_->runGraph(graph_, numBatches, &runGraphNode, &run);
}

std::size_t CompiledPipeline::retainedBytes() const {
  return graph_.storageBytes();
}

} // namespace pipoly::tasking
