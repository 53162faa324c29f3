#include "codegen/task_program.hpp"

#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

namespace pipoly::codegen {

std::int64_t linearizeBlockVector(const pb::Tuple& blockRep) {
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

  // Per statement: iterations across Block tasks partition the domain,
  // blocks in lexicographic order, and self-ordering chain intact. One
  // pass over the task list with per-statement running state. Combine
  // tasks are checked separately: fold steps enumerate the statement's
  // partial blocks in order, and the in-dependencies cover every partial.
  //
  // The partition check streams: while a statement's iterations arrive
  // in lexicographic order (lowering emits them so) they are compared in
  // place against the domain's sorted rows. A statement whose stream
  // leaves that order is checked by sorting its collected iterations.
  const std::size_t numStmts = scop.numStatements();
  std::vector<const Task*> prev(numStmts, nullptr);
  std::vector<const Task*> combine(numStmts, nullptr);
  std::vector<std::vector<std::uint32_t>> blockIds(numStmts);
  std::vector<std::size_t> matched(numStmts, 0);
  std::vector<bool> inOrder(numStmts);
  for (std::size_t s = 0; s < numStmts; ++s) {
    const scop::Statement& stmt = scop.statement(s);
    inOrder[s] = stmt.depth() != 0 && stmt.space() == stmt.domain().space();
  }
  for (const Task& t : tasks) {
    PIPOLY_CHECK_MSG(t.stmtIdx < numStmts,
                     "task statement index out of range");
    PIPOLY_CHECK(!t.iterations.empty());
    PIPOLY_CHECK_MSG(std::is_sorted(t.iterations.begin(), t.iterations.end()),
                     "task iterations must be in lexicographic order");
    PIPOLY_CHECK_MSG(t.iterations.back() == t.blockRep,
                     "block representative must be the last iteration");
    if (t.kind == TaskKind::ReductionCombine) {
      PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                       "at most one combine task per statement");
      combine[t.stmtIdx] = &t;
      const std::size_t arity = scop.statement(t.stmtIdx).depth() + 1;
      for (std::size_t k = 0; k < t.iterations.size(); ++k) {
        PIPOLY_CHECK_MSG(t.iterations[k].size() == arity,
                         "combine fold tuple arity must be depth + 1");
        PIPOLY_CHECK_MSG(t.iterations[k][0] ==
                             static_cast<pb::Value>(k),
                         "combine fold steps must enumerate partials in "
                         "order");
        for (std::size_t d = 1; d < arity; ++d)
          PIPOLY_CHECK_MSG(t.iterations[k][d] == 0,
                           "combine fold tuple padding must be zero");
      }
      continue;
    }
    PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                     "partial blocks must precede their combine task");
    blockIds[t.stmtIdx].push_back(static_cast<std::uint32_t>(t.id));
    if (const Task* p = prev[t.stmtIdx]) {
      PIPOLY_CHECK_MSG(p->blockRep < t.blockRep,
                       "blocks of one statement must be ordered");
      if (chainOrdering) {
        bool hasSelfDep =
            std::any_of(t.in.begin(), t.in.end(), [&](const TaskDep& d) {
              return d.selfOrdering && d.idx == p->out.idx &&
                     d.tag == p->out.tag;
            });
        PIPOLY_CHECK_MSG(hasSelfDep,
                         "missing same-statement ordering dependency");
      }
    }
    if (inOrder[t.stmtIdx]) {
      const pb::IntTupleSet& domain = scop.statement(t.stmtIdx).domain();
      const std::size_t w = domain.arity();
      const pb::Value* rows = domain.rowData().data();
      std::size_t& next = matched[t.stmtIdx];
      for (const pb::Tuple& it : t.iterations) {
        if (it.size() != w || next == domain.size() ||
            !std::equal(it.data(), it.data() + w, rows + next * w)) {
          inOrder[t.stmtIdx] = false;
          break;
        }
        ++next;
      }
    }
    prev[t.stmtIdx] = &t;
  }
  for (std::size_t s = 0; s < numStmts; ++s) {
    const scop::Statement& stmt = scop.statement(s);
    if (!inOrder[s] || matched[s] != stmt.domain().size()) {
      std::vector<pb::Tuple> all;
      for (const std::uint32_t id : blockIds[s])
        all.insert(all.end(), tasks[id].iterations.begin(),
                   tasks[id].iterations.end());
      std::sort(all.begin(), all.end());
      PIPOLY_CHECK_MSG(pb::IntTupleSet(stmt.space(), std::move(all)) ==
                           stmt.domain(),
                       "task iterations must partition the statement domain");
    }
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

  for (const ast::AstLoopNest& nest : ast.nests) {
    const int stmtSlot = static_cast<int>(nest.stmtIdx);
    std::optional<TaskDep> prevOut;
    for (const pb::Tuple& rep : nest.blockReps.points()) {
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.blockRep = rep;
      task.iterations = nest.expansion.imagesOf(rep);
      PIPOLY_CHECK(!task.iterations.empty());
      task.out = TaskDep{stmtSlot, linearizeBlockVector(rep)};

      // Cross-statement in-dependencies from the Q_S maps (single-valued
      // under chain ordering; exact data-flow edges, possibly several,
      // under relaxed ordering). A viaCombine requirement depends on the
      // source's combine task instead of any block.
      for (const pipeline::InRequirement& req :
           nest.annotation.inRequirements) {
        if (req.viaCombine) {
          task.in.push_back(combineDep(prog.numStatements, req.srcStmtIdx));
          continue;
        }
        for (const pb::Tuple& image : req.map.imagesOf(rep))
          task.in.push_back(TaskDep{static_cast<int>(req.srcStmtIdx),
                                    linearizeBlockVector(image)});
      }

      if (nest.annotation.chainOrdering) {
        // Same-statement ordering (the funcCount protocol of Fig. 8).
        if (prevOut)
          task.in.push_back(
              TaskDep{prevOut->idx, prevOut->tag, /*selfOrdering=*/true});
      } else {
        // §7 relaxation: only the actual cross-block self-dependences.
        prog.chainOrdering = false;
        for (const pb::Tuple& required :
             nest.annotation.selfEdges.imagesOf(rep))
          task.in.push_back(TaskDep{stmtSlot,
                                    linearizeBlockVector(required),
                                    /*selfOrdering=*/true});
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
      const std::size_t arity = nest.blockReps.space().arity() + 1;
      std::size_t k = 0;
      for (const pb::Tuple& rep : nest.blockReps.points()) {
        std::vector<pb::Value> fold(arity, 0);
        fold[0] = static_cast<pb::Value>(k++);
        task.iterations.emplace_back(fold.data(), arity);
        task.in.push_back(TaskDep{stmtSlot, linearizeBlockVector(rep)});
      }
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
