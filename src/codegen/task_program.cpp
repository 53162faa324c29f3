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

namespace {

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

/// Position of `rep` among the sorted block representatives `reps`.
/// Searches on from `cursor` when `rep` lies past the row before it
/// (successive lookups mostly rise), from the start otherwise, and leaves
/// `cursor` at the hit.
std::uint32_t blockIndex(const pb::IntTupleSet& reps, pb::TupleView rep,
                         std::size_t& cursor) {
  const std::size_t w = reps.arity(), n = reps.size();
  const pb::Value* rows = reps.rowData().data();
  if (cursor > 0 && !pb::rows::less(rows + (cursor - 1) * w, rep.data(), w))
    cursor = 0;
  cursor = pb::rows::gallopLowerBound(rows, n, w, cursor, rep.data(), w);
  PIPOLY_CHECK_MSG(cursor < n && pb::rows::equal(rows + cursor * w,
                                                 rep.data(), w),
                   "requirement names no block of its source statement");
  return static_cast<std::uint32_t>(cursor);
}

} // namespace

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

  // Tasks are creation-ordered by id and each out names its own task.
  // Out tags rise in creation order within each idx, so no two tasks
  // share one. Every in-dependency names an earlier task and carries
  // that task's out tag (OpenMP depend "last writer" semantics with our
  // creation order).
  std::vector<const TaskDep*> lastOut(2 * numStatements, nullptr);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    PIPOLY_CHECK(t.id == i);
    PIPOLY_CHECK_MSG(t.out.producer == i,
                     "out-dependency must name its own task");
    PIPOLY_CHECK_MSG(t.out.idx >= 0 &&
                         static_cast<std::size_t>(t.out.idx) < lastOut.size(),
                     "out-dependency slot index out of range");
    const TaskDep*& last = lastOut[static_cast<std::size_t>(t.out.idx)];
    PIPOLY_CHECK_MSG(last == nullptr || last->tag < t.out.tag,
                     "duplicate or out-of-order out-dependency tag");
    last = &t.out;
    for (const TaskDep& dep : t.in) {
      PIPOLY_CHECK_MSG(dep.producer < i,
                       "in-dependency without an earlier producing task");
      const TaskDep& out = tasks[dep.producer].out;
      PIPOLY_CHECK_MSG(out.idx == dep.idx && out.tag == dep.tag,
                       "in-dependency tag differs from its producer's");
    }
  }

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
            return d.selfOrdering && d.producer == p->id;
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
      std::vector<bool> folded(c->id, false);
      for (const TaskDep& dep : c->in)
        folded[dep.producer] = true;
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
  std::vector<std::size_t> lanesOf(numStmts, 0); // per statement, stages
  for (std::size_t s = 0; s < numStmts; ++s) {
    if (tasks[s] == 0)
      continue;
    const bool source = combined[s] && blocks[s] >= 2 && !fed[s];
    lanesOf[s] = source ? std::min<std::size_t>(blocks[s], workers) : 1;
    layout.stageOf[s] = layout.stmtOf.size();
    layout.stmtOf.insert(layout.stmtOf.end(), lanesOf[s], s);
  }
  // Block tasks are dealt round-robin over their statement's lanes in
  // creation order; every other task (a combine) joins the first lane.
  layout.stageTasks.assign(layout.stmtOf.size(), 0);
  layout.place.resize(program.tasks.size());
  std::vector<std::size_t> dealt(numStmts, 0);
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const Task& t = program.tasks[i];
    const std::size_t lanes = lanesOf[t.stmtIdx];
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

  // Per statement, once lowered: its block representatives, the id of
  // its first block task (block b is task firstTask + b) and its combine
  // task's id. Sources precede their readers, so every requirement
  // names tasks already created, and each dependency is a copy of its
  // producer's out: the producer's id and tag.
  const std::size_t numStmts = scop.numStatements();
  std::vector<const pb::IntTupleSet*> repsOf(numStmts, nullptr);
  std::vector<std::uint32_t> firstTask(numStmts, kNoProducer);
  std::vector<std::uint32_t> combineTask(numStmts, kNoProducer);

  for (const ast::AstLoopNest& nest : ast.nests) {
    const int stmtSlot = static_cast<int>(nest.stmtIdx);
    const pb::IntTupleSet& domain = prog.rowTables[nest.stmtIdx];
    const std::size_t depth = nest.blockReps.arity();
    const pb::Value* reps = nest.blockReps.rowData().data();
    const auto first = static_cast<std::uint32_t>(prog.tasks.size());
    repsOf[nest.stmtIdx] = &nest.blockReps;
    firstTask[nest.stmtIdx] = first;
    // One cursor per requirement map and one for the self edges: the
    // maps' rows are sorted by block representative, and the blocks
    // arrive in that order. A second cursor each finds the required
    // block among its statement's representatives.
    const std::size_t numReqs = nest.annotation.inRequirements.size();
    std::vector<std::size_t> reqCursor(numReqs, 0), srcCursor(numReqs, 0);
    std::size_t selfCursor = 0, selfBlock = 0;
    for (std::size_t blk = 0; blk < nest.blockReps.size(); ++blk) {
      const pb::TupleView rep(reps + blk * depth, depth);
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.blockRep = rep;
      task.iterations = IterationRange(domain, nest.blockStarts[blk],
                                       nest.blockStarts[blk + 1]);
      task.out = TaskDep{stmtSlot, linearizeBlockVector(rep), false,
                         static_cast<std::uint32_t>(task.id)};
      const auto dependOn = [&](std::uint32_t producer, bool selfOrdering) {
        PIPOLY_CHECK_MSG(producer < prog.tasks.size(),
                         "requirement on a task not lowered yet");
        task.in.push_back(prog.tasks[producer].out);
        task.in.back().selfOrdering = selfOrdering;
      };

      // Cross-statement in-dependencies from the Q_S maps (single-valued
      // under chain ordering; exact data-flow edges, possibly several,
      // under relaxed ordering). A viaCombine requirement depends on the
      // source's combine task instead of any block.
      for (std::size_t r = 0; r < numReqs; ++r) {
        const pipeline::InRequirement& req = nest.annotation.inRequirements[r];
        const std::size_t src = req.srcStmtIdx;
        if (req.viaCombine) {
          dependOn(combineTask[src], false);
          continue;
        }
        PIPOLY_CHECK_MSG(repsOf[src] != nullptr,
                         "requirement on a statement not lowered yet");
        forEachImage(req.map, rep, reqCursor[r], [&](pb::TupleView image) {
          dependOn(firstTask[src] + blockIndex(*repsOf[src], image,
                                               srcCursor[r]),
                   false);
        });
      }

      if (nest.annotation.chainOrdering) {
        // Same-statement ordering (the funcCount protocol of Fig. 8).
        if (blk > 0)
          dependOn(static_cast<std::uint32_t>(task.id - 1), true);
      } else {
        // §7 relaxation: only the actual cross-block self-dependences.
        prog.chainOrdering = false;
        forEachImage(nest.annotation.selfEdges, rep, selfCursor,
                     [&](pb::TupleView required) {
                       dependOn(first + blockIndex(nest.blockReps, required,
                                                   selfBlock),
                                true);
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

      prog.tasks.push_back(std::move(task));
    }

    // Relaxed reduction nest: append the combine task. It folds the
    // partial accumulators into the array, one fold step per partial
    // block in deterministic (block) order, after every partial
    // finished. Readers of this statement depend on its combine task
    // (see the viaCombine branch above).
    if (nest.annotation.reduction.relaxed && !nest.blockReps.empty()) {
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.kind = TaskKind::ReductionCombine;
      task.iterations =
          IterationRange(prog.rowTables[foldTable.at(depth + 1)], 0,
                         nest.blockReps.size());
      for (std::size_t b = 0; b < nest.blockReps.size(); ++b)
        task.in.push_back(prog.tasks[first + b].out);
      task.blockRep = task.iterations.back();
      task.out = combineDep(prog.numStatements, nest.stmtIdx);
      task.out.producer = static_cast<std::uint32_t>(task.id);
      combineTask[nest.stmtIdx] = task.out.producer;
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
