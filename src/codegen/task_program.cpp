#include "codegen/task_program.hpp"

#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

namespace pipoly::codegen {

IterationRange::IterationRange(const pb::IntTupleSet& table,
                               std::size_t rowBegin, std::size_t rowEnd)
    : rows_(table.rowData().data()),
      arity_(static_cast<std::uint32_t>(table.arity())),
      begin_(static_cast<std::uint32_t>(rowBegin)),
      end_(static_cast<std::uint32_t>(rowEnd)) {
  PIPOLY_CHECK_MSG(rowBegin <= rowEnd && rowEnd <= table.size(),
                   "iteration range outside its row table");
  PIPOLY_CHECK_MSG(rowEnd <= std::numeric_limits<std::uint32_t>::max(),
                   "row table too large for 32-bit row indices");
}

void IterationRange::extend(const IterationRange& next) {
  PIPOLY_CHECK_MSG(adjoins(next), "only adjoining ranges extend");
  end_ = next.end_;
}

std::int64_t linearizeBlockVector(pb::TupleView blockRep) {
  std::int64_t tag = 0;
  for (pb::Value v : blockRep) {
    PIPOLY_CHECK_MSG(v >= 0 && v < kLinearStride,
                     "block coordinate out of range for linearisation");
    PIPOLY_CHECK_MSG(tag <= (std::numeric_limits<std::int64_t>::max() -
                             kLinearStride) /
                                kLinearStride,
                     "block vector too large to linearise");
    tag = tag * kLinearStride + v;
  }
  return tag;
}

TaskDep combineDep(std::size_t numStatements, std::size_t stmtIdx) {
  return TaskDep{static_cast<int>(numStatements + stmtIdx), 0};
}

std::optional<std::size_t> TaskProgram::taskWithOut(const TaskDep& dep) const {
  for (const Task& t : tasks)
    if (t.out.idx == dep.idx && t.out.tag == dep.tag)
      return t.id;
  return std::nullopt;
}

namespace {

/// (idx, tag) -> task position in one flat open-addressing table: the
/// lookup structure of resolveDependencies, with no allocation per entry
/// (a node-based hash map spent most of its time allocating).
class OutTagIndex {
public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit OutTagIndex(const std::vector<Task>& tasks) {
    PIPOLY_CHECK_MSG(tasks.size() < kNone, "task program too large");
    std::size_t capacity = 16;
    while (capacity < 2 * tasks.size())
      capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, Slot{});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskDep& out = tasks[i].out;
      std::size_t k = hash(out.idx, out.tag);
      for (; slots_[k].id != kNone; k = (k + 1) & mask_)
        PIPOLY_CHECK_MSG(slots_[k].idx != out.idx || slots_[k].tag != out.tag,
                         "duplicate out-dependency tag");
      slots_[k] = Slot{out.tag, out.idx, static_cast<std::uint32_t>(i)};
    }
  }

  /// Position of the task whose out tag is (idx, tag), or kNone.
  std::uint32_t find(int idx, std::int64_t tag) const {
    for (std::size_t k = hash(idx, tag);; k = (k + 1) & mask_) {
      const Slot& slot = slots_[k];
      if (slot.id == kNone || (slot.tag == tag && slot.idx == idx))
        return slot.id;
    }
  }

private:
  struct Slot {
    std::int64_t tag = 0;
    int idx = 0;
    std::uint32_t id = kNone;
  };

  std::size_t hash(int idx, std::int64_t tag) const {
    // splitmix64's finalizer: linearised block vectors differ mostly in
    // their high bits, which the mask alone would drop.
    std::uint64_t h = static_cast<std::uint64_t>(tag) ^
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(idx))
                       << 40);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Calls f with every image of `rep` under `map`, advancing `cursor` over
/// the map's rows; successive calls must pass increasing representatives.
template <typename F>
void forEachImage(const pb::IntMap& map, pb::TupleView rep,
                  std::size_t& cursor, F&& f) {
  const std::size_t inA = map.domainSpace().arity();
  const std::size_t outA = map.rangeSpace().arity(), w = inA + outA;
  const std::size_t n = map.size();
  const pb::Value* rows = map.rowData().data();
  cursor = pb::rows::gallopLowerBound(rows, n, w, cursor, rep.data(), inA);
  for (; cursor < n && pb::rows::equal(rows + cursor * w, rep.data(), inA);
       ++cursor)
    f(pb::TupleView(rows + cursor * w + inA, outA));
}

} // namespace

ResolvedDependencies TaskProgram::resolveDependencies() const {
  const OutTagIndex index(tasks);
  ResolvedDependencies deps;
  deps.offsets.reserve(tasks.size() + 1);
  deps.offsets.push_back(0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const TaskDep& dep : tasks[i].in) {
      const std::uint32_t p = index.find(dep.idx, dep.tag);
      PIPOLY_CHECK_MSG(p != OutTagIndex::kNone,
                       "in-dependency with no producing task");
      PIPOLY_CHECK_MSG(p < i, "in-dependency on a later task (creation order)");
      deps.producers.push_back(p);
    }
    deps.offsets.push_back(static_cast<std::uint32_t>(deps.producers.size()));
  }
  return deps;
}

ProgramCounts TaskProgram::counts() const {
  ProgramCounts c;
  c.tasks = tasks.size();
  for (const Task& t : tasks)
    c.inEdges += t.in.size();
  return c;
}

void TaskProgram::validate(const scop::Scop& scop) const {
  trace::Span span("codegen.validate");
  PIPOLY_CHECK(numStatements == scop.numStatements());
  PIPOLY_CHECK_MSG(stmtReaders.empty() || stmtReaders.size() == numStatements,
                   "stmtReaders must be absent or cover every statement");
  for (const std::vector<std::size_t>& readers : stmtReaders)
    for (std::size_t r : readers)
      PIPOLY_CHECK_MSG(r < numStatements, "stmtReaders index out of range");

  // Tasks are creation-ordered by id, out-dependencies are unique, and
  // every in-dependency resolves to an earlier task (OpenMP depend "last
  // writer" semantics with our creation order).
  for (std::size_t i = 0; i < tasks.size(); ++i)
    PIPOLY_CHECK(tasks[i].id == i);
  const ResolvedDependencies deps = resolveDependencies();

  // Per statement: its Block tasks tile the domain rows [0, |D_S|) in
  // creation order (each starts where the previous one ended, in the
  // statement's row table), the self-ordering chain is intact, and a
  // combine task folds exactly one partial per block, in order, after
  // depending on every partial. One pass over the task list with
  // per-statement running state.
  const std::size_t numStmts = scop.numStatements();
  PIPOLY_CHECK_MSG(rowTables.size() >= numStmts,
                   "every statement needs its domain row table");
  for (std::size_t s = 0; s < numStmts; ++s)
    PIPOLY_CHECK_MSG(rowTables[s] == scop.statement(s).domain(),
                     "row table does not hold the statement domain");
  std::vector<const Task*> prev(numStmts, nullptr);
  std::vector<const Task*> combine(numStmts, nullptr);
  std::vector<std::vector<std::uint32_t>> blockIds(numStmts);
  std::vector<std::uint32_t> covered(numStmts, 0);
  for (const Task& t : tasks) {
    PIPOLY_CHECK_MSG(t.stmtIdx < numStmts,
                     "task statement index out of range");
    PIPOLY_CHECK_MSG(!t.iterations.empty(), "task iteration range is empty");
    PIPOLY_CHECK_MSG(t.iterations.back() == t.blockRep,
                     "block representative must be the last iteration");
    if (t.kind == TaskKind::ReductionCombine) {
      PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                       "at most one combine task per statement");
      combine[t.stmtIdx] = &t;
      const std::size_t arity = scop.statement(t.stmtIdx).depth() + 1;
      PIPOLY_CHECK_MSG(t.iterations.arity() == arity,
                       "combine fold tuple arity must be depth + 1");
      std::size_t k = 0;
      for (const pb::TupleView fold : t.iterations) {
        PIPOLY_CHECK_MSG(fold[0] == static_cast<pb::Value>(k++),
                         "combine fold steps must enumerate partials in "
                         "order");
        for (std::size_t d = 1; d < arity; ++d)
          PIPOLY_CHECK_MSG(fold[d] == 0,
                           "combine fold tuple padding must be zero");
      }
      continue;
    }
    PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                     "partial blocks must precede their combine task");
    const pb::IntTupleSet& domain = rowTables[t.stmtIdx];
    PIPOLY_CHECK_MSG(t.iterations.table() == domain.rowData().data() &&
                         t.iterations.arity() == domain.arity(),
                     "block task iterations must be statement domain rows");
    PIPOLY_CHECK_MSG(t.iterations.rowBegin() <= covered[t.stmtIdx],
                     "gap between consecutive block tasks of a statement");
    PIPOLY_CHECK_MSG(t.iterations.rowBegin() >= covered[t.stmtIdx],
                     "overlapping block tasks of a statement");
    covered[t.stmtIdx] = t.iterations.rowEnd();
    blockIds[t.stmtIdx].push_back(static_cast<std::uint32_t>(t.id));
    if (const Task* p = prev[t.stmtIdx]; p != nullptr && chainOrdering) {
      bool hasSelfDep =
          std::any_of(t.in.begin(), t.in.end(), [&](const TaskDep& d) {
            return d.selfOrdering && d.idx == p->out.idx &&
                   d.tag == p->out.tag;
          });
      PIPOLY_CHECK_MSG(hasSelfDep,
                       "missing same-statement ordering dependency");
    }
    prev[t.stmtIdx] = &t;
  }
  for (std::size_t s = 0; s < numStmts; ++s) {
    PIPOLY_CHECK_MSG(covered[s] == rowTables[s].size(),
                     "block tasks must cover the statement domain");
    if (const Task* c = combine[s]) {
      PIPOLY_CHECK_MSG(c->iterations.size() == blockIds[s].size(),
                       "combine must fold exactly one partial per block "
                       "task");
      // Out tags are unique, so depending on a partial's tag is naming
      // its task among the combine's resolved producers.
      std::vector<bool> folded(c->id, false);
      for (std::uint32_t k = deps.offsets[c->id]; k < deps.offsets[c->id + 1];
           ++k)
        folded[deps.producers[k]] = true;
      for (const std::uint32_t id : blockIds[s])
        PIPOLY_CHECK_MSG(folded[id],
                         "combine task must depend on every partial block");
    }
  }
}

std::vector<std::vector<std::size_t>>
statementReadership(const TaskProgram& program) {
  const std::size_t numStmts = program.numStatements;
  if (program.stmtReaders.size() == numStmts)
    return program.stmtReaders;
  // Fallback for hand-assembled programs: statement-level reachability
  // over the surviving edges (in-dependency idx IS the producer's
  // statement slot). Floyd–Warshall; statement counts are small.
  std::vector<std::vector<bool>> reach(numStmts,
                                       std::vector<bool>(numStmts, false));
  for (const Task& t : program.tasks)
    for (const TaskDep& dep : t.in) {
      // Combine tags live at idx == numStatements + stmtIdx; fold them
      // back onto their statement for the reachability projection.
      std::size_t src = static_cast<std::size_t>(dep.idx);
      if (dep.idx >= 0 && src >= numStmts && src < 2 * numStmts)
        src -= numStmts;
      if (dep.idx >= 0 && src < numStmts)
        reach[src][t.stmtIdx] = true;
    }
  for (std::size_t k = 0; k < numStmts; ++k)
    for (std::size_t s = 0; s < numStmts; ++s)
      if (reach[s][k])
        for (std::size_t t = 0; t < numStmts; ++t)
          if (reach[k][t])
            reach[s][t] = true;
  std::vector<std::vector<std::size_t>> readers(numStmts);
  for (std::size_t s = 0; s < numStmts; ++s)
    for (std::size_t t = 0; t < numStmts; ++t)
      if (s != t && reach[s][t])
        readers[s].push_back(t);
  return readers;
}

unsigned channelWorkers(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

StageLayout stageLayout(const TaskProgram& program, unsigned workers) {
  PIPOLY_CHECK_MSG(workers != 0, "stageLayout needs a resolved worker count "
                                 "(see channelWorkers)");
  StageLayout layout;
  const std::size_t numStmts = program.numStatements;
  // Per statement: tasks, Block tasks, whether any Block task waits on an
  // in-dependency (which keeps the statement on one stage), and whether
  // it owns a combine (whose dependency on every partial ties the lanes
  // together within a batch).
  std::vector<std::size_t> tasks(numStmts, 0), blocks(numStmts, 0);
  std::vector<bool> fed(numStmts, false), combined(numStmts, false);
  for (const Task& t : program.tasks) {
    ++tasks[t.stmtIdx];
    if (t.kind == TaskKind::Block) {
      ++blocks[t.stmtIdx];
      fed[t.stmtIdx] = fed[t.stmtIdx] || !t.in.empty();
    } else {
      combined[t.stmtIdx] = true;
    }
  }
  layout.stageOf.assign(numStmts, SIZE_MAX);
  layout.lanesOf.assign(numStmts, 0);
  for (std::size_t s = 0; s < numStmts; ++s) {
    if (tasks[s] == 0)
      continue;
    const bool source = combined[s] && blocks[s] >= 2 && !fed[s];
    layout.lanesOf[s] =
        source ? std::min<std::size_t>(blocks[s], workers) : 1;
    layout.stageOf[s] = layout.stmtOf.size();
    layout.stmtOf.insert(layout.stmtOf.end(), layout.lanesOf[s], s);
  }
  // Block tasks are dealt round-robin over their statement's lanes in
  // creation order; every other task (a combine) joins the first lane.
  layout.stageTasks.assign(layout.stmtOf.size(), 0);
  layout.place.resize(program.tasks.size());
  std::vector<std::size_t> dealt(numStmts, 0);
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const Task& t = program.tasks[i];
    const std::size_t lanes = layout.lanesOf[t.stmtIdx];
    const std::size_t lane =
        t.kind == TaskKind::Block ? dealt[t.stmtIdx]++ % lanes : 0;
    const std::size_t stage = layout.stageOf[t.stmtIdx] + lane;
    layout.place[i] = {stage, layout.stageTasks[stage]++};
  }
  return layout;
}

TaskProgram lowerToTasks(const scop::Scop& scop, const ast::Ast& ast) {
  trace::Span span("codegen.lower");
  TaskProgram prog;
  prog.numStatements = scop.numStatements();

  // writeNum (§5.5): statements that are sources of other statements.
  std::vector<bool> isSource(scop.numStatements(), false);
  for (const ast::AstLoopNest& nest : ast.nests)
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      isSource[req.srcStmtIdx] = true;
  prog.writeNum = static_cast<std::size_t>(
      std::count(isSource.begin(), isSource.end(), true));

  // Statement-level readership (see the field comment): one entry per
  // Q_S requirement, deduplicated.
  prog.stmtReaders.assign(scop.numStatements(), {});
  for (const ast::AstLoopNest& nest : ast.nests)
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      if (req.srcStmtIdx != nest.stmtIdx)
        prog.stmtReaders[req.srcStmtIdx].push_back(nest.stmtIdx);
  for (std::vector<std::size_t>& readers : prog.stmtReaders) {
    std::sort(readers.begin(), readers.end());
    readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
  }

  // Row tables: every statement's domain, then one fold table per fold
  // arity, as long as the largest combine of that arity.
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    prog.rowTables.push_back(scop.statement(s).domain());
  std::map<std::size_t, std::size_t> foldRows; // arity -> rows
  for (const ast::AstLoopNest& nest : ast.nests)
    if (nest.annotation.reduction.relaxed) {
      std::size_t& rows = foldRows[nest.blockReps.arity() + 1];
      rows = std::max(rows, nest.blockReps.size());
    }
  std::map<std::size_t, std::size_t> foldTable; // arity -> rowTables index
  for (const auto& [arity, rows] : foldRows) {
    pb::RowBuffer table(rows * arity, 0);
    for (std::size_t k = 0; k < rows; ++k)
      table[k * arity] = static_cast<pb::Value>(k);
    foldTable[arity] = prog.rowTables.size();
    prog.rowTables.push_back(pb::IntTupleSet::fromSortedRows(
        pb::Space("fold", arity), std::move(table)));
  }

  for (const ast::AstLoopNest& nest : ast.nests) {
    const int stmtSlot = static_cast<int>(nest.stmtIdx);
    const pb::IntTupleSet& domain = prog.rowTables[nest.stmtIdx];
    const std::size_t depth = nest.blockReps.arity();
    const pb::Value* reps = nest.blockReps.rowData().data();
    // One cursor per requirement map and one for the self edges: the
    // maps' rows are sorted by block representative, and the blocks
    // arrive in that order.
    std::vector<std::size_t> reqCursor(nest.annotation.inRequirements.size(),
                                       0);
    std::size_t selfCursor = 0;
    std::optional<TaskDep> prevOut;
    for (std::size_t blk = 0; blk < nest.blockReps.size(); ++blk) {
      const pb::TupleView rep(reps + blk * depth, depth);
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.blockRep = rep;
      task.iterations = IterationRange(domain, nest.blockStarts[blk],
                                       nest.blockStarts[blk + 1]);
      task.out = TaskDep{stmtSlot, linearizeBlockVector(rep)};

      // Cross-statement in-dependencies from the Q_S maps (single-valued
      // under chain ordering; exact data-flow edges, possibly several,
      // under relaxed ordering). A viaCombine requirement depends on the
      // source's combine task instead of any block.
      for (std::size_t r = 0; r < reqCursor.size(); ++r) {
        const pipeline::InRequirement& req = nest.annotation.inRequirements[r];
        if (req.viaCombine) {
          task.in.push_back(combineDep(prog.numStatements, req.srcStmtIdx));
          continue;
        }
        forEachImage(req.map, rep, reqCursor[r], [&](pb::TupleView image) {
          task.in.push_back(TaskDep{static_cast<int>(req.srcStmtIdx),
                                    linearizeBlockVector(image)});
        });
      }

      if (nest.annotation.chainOrdering) {
        // Same-statement ordering (the funcCount protocol of Fig. 8).
        if (prevOut)
          task.in.push_back(
              TaskDep{prevOut->idx, prevOut->tag, /*selfOrdering=*/true});
      } else {
        // §7 relaxation: only the actual cross-block self-dependences.
        prog.chainOrdering = false;
        forEachImage(nest.annotation.selfEdges, rep, selfCursor,
                     [&](pb::TupleView required) {
                       task.in.push_back(TaskDep{stmtSlot,
                                                 linearizeBlockVector(required),
                                                 /*selfOrdering=*/true});
                     });
      }

      // Deduplicate dependency slots (exact data-flow edges can name the
      // same source block several times); keep the selfOrdering flag if
      // any duplicate carried it.
      std::sort(task.in.begin(), task.in.end(),
                [](const TaskDep& a, const TaskDep& b) {
                  return std::tie(a.idx, a.tag, b.selfOrdering) <
                         std::tie(b.idx, b.tag, a.selfOrdering);
                });
      task.in.erase(std::unique(task.in.begin(), task.in.end(),
                                [](const TaskDep& a, const TaskDep& b) {
                                  return a.idx == b.idx && a.tag == b.tag;
                                }),
                    task.in.end());

      prevOut = task.out;
      prog.tasks.push_back(std::move(task));
    }

    // Relaxed reduction nest: append the combine task. It folds the
    // partial accumulators into the array, one fold step per partial
    // block in deterministic (block) order, after every partial
    // finished. Readers of this statement depend on its combine tag (see
    // the viaCombine branch above).
    if (nest.annotation.reduction.relaxed && !nest.blockReps.empty()) {
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.kind = TaskKind::ReductionCombine;
      task.iterations =
          IterationRange(prog.rowTables[foldTable.at(depth + 1)], 0,
                         nest.blockReps.size());
      for (std::size_t b = 0; b < nest.blockReps.size(); ++b)
        task.in.push_back(TaskDep{
            stmtSlot, linearizeBlockVector(pb::TupleView(reps + b * depth,
                                                         depth))});
      task.blockRep = task.iterations.back();
      task.out = combineDep(prog.numStatements, nest.stmtIdx);
      prog.tasks.push_back(std::move(task));
    }
  }
  return prog;
}

TaskProgram compilePipeline(const scop::Scop& scop,
                            const pipeline::DetectOptions& options) {
  trace::Span span("compile");
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, options);
  std::unique_ptr<sched::ScheduleNode> tree;
  {
    trace::Span schedule("compile.schedule");
    tree = sched::buildPipelineSchedule(scop, info);
  }
  ast::Ast loweredAst;
  {
    trace::Span astSpan("compile.ast");
    loweredAst = ast::buildAst(scop, *tree);
  }
  TaskProgram prog = lowerToTasks(scop, loweredAst);
  prog.validate(scop);
  return prog;
}

std::string TaskProgram::toString() const {
  std::ostringstream os;
  os << "task program: " << tasks.size() << " tasks, " << numStatements
     << " statements, writeNum=" << writeNum << '\n';
  for (const Task& t : tasks) {
    os << "  task " << t.id << ": stmt " << t.stmtIdx
       << (t.kind == TaskKind::ReductionCombine ? " combine " : " block ")
       << t.blockRep << " (" << t.iterations.size() << " its) out=("
       << t.out.idx << ',' << t.out.tag << ')';
    for (const TaskDep& d : t.in)
      os << " in=(" << d.idx << ',' << d.tag << (d.selfOrdering ? ",self" : "")
         << ')';
    os << '\n';
  }
  return os.str();
}

} // namespace pipoly::codegen
