#include "opt/optimizer.hpp"

#include "runtime/placement.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pipoly::opt {

namespace {

using codegen::Task;
using codegen::TaskDep;
using codegen::TaskKind;
using codegen::TaskProgram;

std::size_t countEdges(const TaskProgram& program) {
  std::size_t edges = 0;
  for (const Task& t : program.tasks)
    edges += t.in.size();
  return edges;
}

/// Resolves every in-dependency of every task to the producing task id.
/// Returns the flattened per-task predecessor lists (offsets like
/// SlotTable). O(tasks + edges) through the hashed owner index.
struct PredLists {
  std::vector<std::uint32_t> preds;
  std::vector<std::uint32_t> offsets;
};

PredLists resolvePredecessors(const TaskProgram& program) {
  const codegen::OutOwnerIndex owner = program.buildOutOwnerIndex();
  PredLists lists;
  lists.offsets.reserve(program.tasks.size() + 1);
  lists.offsets.push_back(0);
  for (const Task& t : program.tasks) {
    for (const TaskDep& dep : t.in) {
      auto it = owner.find({dep.idx, dep.tag});
      PIPOLY_CHECK_MSG(it != owner.end(),
                       "optimizer: in-dependency with no producing task");
      PIPOLY_CHECK_MSG(it->second < t.id,
                       "optimizer: in-dependency on a later task");
      lists.preds.push_back(static_cast<std::uint32_t>(it->second));
    }
    lists.offsets.push_back(static_cast<std::uint32_t>(lists.preds.size()));
  }
  return lists;
}

/// Pass 1: transitive reduction. Creation order is a topological order
/// (validated: every in-dependency names an earlier task), so one forward
/// sweep computes each task's ancestor set as the union of its direct
/// predecessors' ancestor sets plus the predecessors themselves. An edge
/// p -> v is implied exactly when p is an ancestor of another direct
/// predecessor of v; dropping it leaves the closure untouched.
///
/// Under chainOrdering the same-statement funcCount edge is kept even if
/// implied — TaskProgram::validate() requires the chain to be explicit,
/// and backends with funcCountOrdering re-derive it anyway.
///
/// Bitset ancestor sets: O(V^2/64) memory, O(V*E/64) time. The programs
/// this repository generates are a few thousand tasks at the extreme
/// (P1-P10 at N=16 are tens to hundreds), so the dense representation is
/// both the fastest and the simplest correct choice.
std::size_t transitiveReduce(TaskProgram& program) {
  const std::size_t n = program.tasks.size();
  if (n == 0)
    return 0;
  const PredLists lists = resolvePredecessors(program);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> ancestors(n * words, 0);
  std::vector<std::uint64_t> predUnion(words);

  std::size_t removed = 0;
  for (Task& t : program.tasks) {
    std::fill(predUnion.begin(), predUnion.end(), 0);
    const std::uint32_t* predBegin = lists.preds.data() + lists.offsets[t.id];
    const std::uint32_t* predEnd =
        lists.preds.data() + lists.offsets[t.id + 1];
    for (const std::uint32_t* p = predBegin; p != predEnd; ++p) {
      const std::uint64_t* row = ancestors.data() + std::size_t{*p} * words;
      for (std::size_t w = 0; w < words; ++w)
        predUnion[w] |= row[w];
    }

    // An edge is redundant iff its producer is an ancestor of another
    // direct predecessor (a task is never its own ancestor, so membership
    // in the union is exactly that test).
    std::vector<TaskDep> kept;
    kept.reserve(t.in.size());
    for (std::size_t k = 0; k < t.in.size(); ++k) {
      const std::uint32_t p = predBegin[k];
      const bool implied = (predUnion[p / 64] >> (p % 64)) & 1;
      if (implied && !(program.chainOrdering && t.in[k].selfOrdering)) {
        ++removed;
        continue;
      }
      kept.push_back(t.in[k]);
    }
    t.in = std::move(kept);

    // ancestors(t) = union of predecessors' ancestors + the predecessors.
    // Computed from the *original* edges — the reduction preserves the
    // closure, so either edge set yields the same ancestor sets.
    std::uint64_t* row = ancestors.data() + t.id * words;
    std::copy(predUnion.begin(), predUnion.end(), row);
    for (const std::uint32_t* p = predBegin; p != predEnd; ++p)
      row[*p / 64] |= std::uint64_t{1} << (*p % 64);
  }
  return removed;
}

/// Placement score of the program's current channel structure: stage the
/// statements exactly like the channel backend (codegen::stageLayout,
/// lanes sized by the topology's workers; without a topology one stage
/// per statement, so the score stays independent of the host), weight the surviving cross-stage dependency pairs with
/// the analyzed per-edge bytes, place one stage per worker onto the
/// topology, and read off the partitioner's communication objective.
/// This is the bytes-moved-on-the-placed-topology number the
/// placement-aware passes are scored by.
struct PlacedScore {
  rt::Placement placement;
  /// Per statement: the largest cost class of any cross-domain channel
  /// edge incident to it (1.0 when all its edges are domain-local) —
  /// the fusion-width scaling factor.
  std::vector<double> maxClassOfStmt;
};

PlacedScore scorePlacement(const TaskProgram& program,
                           const pipeline::CommInfo& comm,
                           const std::optional<rt::Topology>& topology) {
  PlacedScore score;
  score.maxClassOfStmt.assign(program.numStatements, 1.0);

  // Stage structure: the channel engine's, statements ascending with a
  // source statement's lanes next to each other.
  const codegen::StageLayout layout = codegen::stageLayout(
      program, topology.has_value() ? topology->numWorkers() : 1);
  const std::vector<std::size_t>& stmtOf = layout.stmtOf;
  const std::size_t numStages = stmtOf.size();
  if (numStages == 0)
    return score;

  // Surviving cross-stage dependency pairs = the channels the backend
  // would build.
  const std::vector<rt::StageEdge> edges =
      channelStageEdges(program, layout, comm);

  const rt::Topology topo =
      topology.has_value()
          ? (topology->numWorkers() == numStages
                 ? *topology
                 : topology->resized(static_cast<unsigned>(numStages)))
          : rt::Topology::uma(static_cast<unsigned>(numStages));
  score.placement = rt::placeStages(
      layout.stageTasks, static_cast<unsigned>(numStages), edges, topo);

  for (const rt::StageEdge& e : edges) {
    const unsigned da = score.placement.domainOfStage[e.src];
    const unsigned db = score.placement.domainOfStage[e.tgt];
    if (da == db)
      continue;
    const double cls = topo.costClass(da, db);
    score.maxClassOfStmt[stmtOf[e.src]] =
        std::max(score.maxClassOfStmt[stmtOf[e.src]], cls);
    score.maxClassOfStmt[stmtOf[e.tgt]] =
        std::max(score.maxClassOfStmt[stmtOf[e.tgt]], cls);
  }
  return score;
}

/// Pass 2: chain fusion. Fuses task `next` into `merged` when
///   * they are adjacent tasks of the same statement (lowerToTasks emits
///     each nest's blocks contiguously, so adjacency in creation order is
///     adjacency in block order — which the C emitter's contiguous
///     iteration ranges rely on),
///   * the tail of `merged` has exactly one dependent (`next`),
///   * `next`'s only in-dependency is on that tail, and
///   * the concatenated iteration list stays lexicographically sorted
///     (validate() and the sequential-per-task execution order need it).
std::size_t fuseChains(TaskProgram& program, std::size_t width,
                       const std::vector<std::size_t>* stmtWidth = nullptr) {
  const std::size_t n = program.tasks.size();
  const std::size_t maxWidth =
      stmtWidth != nullptr && !stmtWidth->empty()
          ? *std::max_element(stmtWidth->begin(), stmtWidth->end())
          : width;
  if (n < 2 || maxWidth < 2)
    return 0;
  const PredLists lists = resolvePredecessors(program);
  std::vector<std::uint32_t> dependents(n, 0);
  for (std::uint32_t p : lists.preds)
    ++dependents[p];

  std::vector<Task> fused;
  fused.reserve(n);
  std::size_t eliminated = 0;
  for (std::size_t i = 0; i < n;) {
    Task merged = std::move(program.tasks[i]);
    // Placement-aware widths: a statement whose channels cross domains
    // fuses wider — bigger blocks per token amortize the slower link,
    // mirroring how the channel engine deepens cross-domain rings.
    const std::size_t effWidth =
        stmtWidth != nullptr && merged.stmtIdx < stmtWidth->size()
            ? (*stmtWidth)[merged.stmtIdx]
            : width;
    std::size_t tail = i; // original id of the last task folded in
    std::size_t run = 1;
    while (run < effWidth && tail + 1 < n) {
      const Task& next = program.tasks[tail + 1];
      // Never fuse across task kinds: a combine task must stay a
      // separate fold step (its iterations use a different arity and the
      // reduction runners dispatch on it).
      if (next.stmtIdx != merged.stmtIdx || next.kind != merged.kind ||
          merged.kind != TaskKind::Block || dependents[tail] != 1 ||
          next.in.size() != 1 || next.in[0].idx != merged.out.idx ||
          next.in[0].tag != merged.out.tag ||
          !(merged.iterations.back() < next.iterations.front()))
        break;
      merged.iterations.insert(merged.iterations.end(),
                               next.iterations.begin(),
                               next.iterations.end());
      merged.out = next.out;
      merged.blockRep = next.blockRep;
      ++tail;
      ++run;
      ++eliminated;
    }
    merged.id = fused.size();
    fused.push_back(std::move(merged));
    i = tail + 1;
  }
  program.tasks = std::move(fused);
  return eliminated;
}

} // namespace

double OptimizeStats::edgeReductionPercent() const {
  if (edgesBefore == 0)
    return 0.0;
  return 100.0 * static_cast<double>(edgesBefore - edgesAfter) /
         static_cast<double>(edgesBefore);
}

double OptimizeStats::taskReductionPercent() const {
  if (tasksBefore == 0)
    return 0.0;
  return 100.0 * static_cast<double>(tasksBefore - tasksAfter) /
         static_cast<double>(tasksBefore);
}

std::string OptimizeStats::toString() const {
  std::ostringstream os;
  os << "opt: tasks " << tasksBefore << " -> " << tasksAfter << " (fused "
     << tasksFused << "), in-edges " << edgesBefore << " -> " << edgesAfter
     << " (reduction removed " << edgesRemoved << ")";
  if (placedCommCostBefore > 0.0 || placedCommCostAfter > 0.0)
    os << ", placed comm cost " << placedCommCostBefore << " -> "
       << placedCommCostAfter << " (cross-domain bytes "
       << crossDomainBytesBefore << " -> " << crossDomainBytesAfter << ")";
  return os.str();
}

OptimizeStats optimize(codegen::TaskProgram& program,
                       const OptimizeOptions& options) {
  trace::Span span("opt.optimize");
  OptimizeStats stats;
  stats.tasksBefore = stats.tasksAfter = program.tasks.size();
  stats.edgesBefore = stats.edgesAfter = countEdges(program);
  // Placement-aware mode: score the untouched program first, derive the
  // per-statement fusion widths from where its channels land on the
  // topology, and re-score after the passes — the before/after pair is
  // the bytes-moved objective the mode optimizes for.
  std::vector<std::size_t> stmtWidths;
  const bool placementAware = options.comm != nullptr;
  if (placementAware) {
    const PlacedScore before =
        scorePlacement(program, *options.comm, options.topology);
    stats.placedCommCostBefore = before.placement.commCost;
    stats.crossDomainBytesBefore = before.placement.crossDomainBytes;
    if (options.fusionWidth > 1) {
      stmtWidths.assign(program.numStatements, options.fusionWidth);
      for (std::size_t s = 0; s < before.maxClassOfStmt.size(); ++s)
        stmtWidths[s] = std::min<std::size_t>(
            options.fusionWidth *
                static_cast<std::size_t>(
                    std::ceil(before.maxClassOfStmt[s])),
            4 * options.fusionWidth);
    }
  }
  if (options.transitiveReduction) {
    trace::Span pass("opt.transitive_reduction");
    stats.edgesRemoved = transitiveReduce(program);
  }
  if (options.fusionWidth > 1) {
    trace::Span pass("opt.chain_fusion");
    stats.tasksFused = fuseChains(program, options.fusionWidth,
                                  stmtWidths.empty() ? nullptr : &stmtWidths);
  }
  if (placementAware) {
    const PlacedScore after =
        scorePlacement(program, *options.comm, options.topology);
    stats.placedCommCostAfter = after.placement.commCost;
    stats.crossDomainBytesAfter = after.placement.crossDomainBytes;
  }
  stats.tasksAfter = program.tasks.size();
  stats.edgesAfter = countEdges(program);
  trace::counter("opt.edges_removed",
                 static_cast<double>(stats.edgesBefore - stats.edgesAfter));
  trace::counter("opt.tasks_fused", static_cast<double>(stats.tasksFused));
  return stats;
}

bool SlotTable::compatibleWith(const codegen::TaskProgram& program) const {
  const std::size_t n = program.tasks.size();
  if (numSlots != n || inOffsets.size() != n + 1)
    return false;
  if (!inOffsets.empty() &&
      (inOffsets.front() != 0 || inOffsets.back() != inSlots.size()))
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (inOffsets[i] > inOffsets[i + 1])
      return false;
    if (inCount(i) != program.tasks[i].in.size())
      return false;
    for (const std::uint32_t* s = inBegin(i); s != inEnd(i); ++s)
      if (*s >= i)
        return false;
  }
  return true;
}

SlotTable buildSlotTable(const codegen::TaskProgram& program) {
  trace::Span span("opt.slot_table");
  PredLists lists = resolvePredecessors(program);
  SlotTable table;
  table.numSlots = static_cast<std::uint32_t>(program.tasks.size());
  table.inSlots = std::move(lists.preds);
  table.inOffsets = std::move(lists.offsets);
  return table;
}

std::vector<rt::StageEdge>
channelStageEdges(const codegen::TaskProgram& program,
                  const codegen::StageLayout& layout,
                  const pipeline::CommInfo& comm) {
  const std::size_t numStages = layout.stmtOf.size();
  const PredLists lists = resolvePredecessors(program);
  std::vector<std::vector<bool>> seen(numStages,
                                      std::vector<bool>(numStages, false));
  std::vector<rt::StageEdge> edges;
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const std::size_t tgt = layout.place[i].first;
    for (std::size_t k = lists.offsets[i]; k < lists.offsets[i + 1]; ++k) {
      const std::size_t src = layout.place[lists.preds[k]].first;
      if (src == tgt || seen[src][tgt])
        continue;
      seen[src][tgt] = true;
      std::uint64_t bytes = 1;
      if (const pipeline::EdgeComm* e =
              comm.edge(layout.stmtOf[src], layout.stmtOf[tgt]))
        bytes = std::max<std::uint64_t>(e->totalBytes, 1);
      edges.push_back({src, tgt, bytes});
    }
  }
  return edges;
}

} // namespace pipoly::opt
