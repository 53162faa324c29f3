#include "opt/optimizer.hpp"

#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <sstream>

namespace pipoly::opt {

namespace {

using codegen::Task;
using codegen::TaskDep;
using codegen::TaskKind;
using codegen::TaskProgram;

/// In-dependency edges. Checks on the way that every producer is an
/// earlier task: the passes index their tables by it.
std::size_t countEdges(const TaskProgram& program) {
  std::size_t edges = 0;
  for (const Task& t : program.tasks) {
    for (const TaskDep& dep : t.in)
      PIPOLY_CHECK_MSG(dep.producer < t.id,
                       "in-dependency without an earlier producing task");
    edges += t.in.size();
  }
  return edges;
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
/// Ancestor sets without V^2 bits: tasks fall into groups, one per
/// (statement, task kind), in creation order. A group is *chained* when
/// each member depends directly on the member before it (the funcCount
/// chain of a chain-ordered statement). A chained group's members among
/// any task's ancestors then form a prefix — an ancestor's predecessor
/// is an ancestor — so one counter per group holds them. Only members of
/// the other groups (a relaxed reduction's partial blocks, a nest under
/// relaxed same-nest ordering) and of chains too short to pay for a
/// counter get a bit each. A chain-ordered Table 9 program at N=48 (8836
/// tasks) needs a few counters per task instead of 9.8 MB of bitsets; a
/// program without chains costs what the dense sweep costs.
///
/// Reads each in-dependency's producer id, which lowering recorded.
std::size_t transitiveReduce(TaskProgram& program) {
  const std::size_t n = program.tasks.size();
  if (n == 0)
    return 0;
  // A counter (32 bits) pays for a chain of at least one bitset word.
  constexpr std::size_t kMinCountedChain = 64;

  // Groups in creation order, each member's position, and whether each
  // group is a chain.
  std::size_t groupKeys = 0;
  for (const Task& t : program.tasks)
    groupKeys = std::max(groupKeys, 2 * t.stmtIdx + 2);
  std::vector<std::uint32_t> groupOfKey(groupKeys, UINT32_MAX);
  std::vector<std::uint32_t> groupOf(n), posInGroup(n);
  std::vector<std::uint32_t> groupSize, groupLast;
  std::vector<bool> chained;
  for (std::size_t v = 0; v < n; ++v) {
    const Task& t = program.tasks[v];
    std::uint32_t& g = groupOfKey[2 * t.stmtIdx +
                                  (t.kind == TaskKind::Block ? 0 : 1)];
    if (g == UINT32_MAX) {
      g = static_cast<std::uint32_t>(groupSize.size());
      groupSize.push_back(0);
      groupLast.push_back(0);
      chained.push_back(true);
    } else if (chained[g]) {
      chained[g] = std::any_of(t.in.begin(), t.in.end(), [&](const TaskDep& d) {
        return d.producer == groupLast[g];
      });
    }
    groupOf[v] = g;
    posInGroup[v] = groupSize[g]++;
    groupLast[g] = static_cast<std::uint32_t>(v);
  }

  // Ancestor rows: one counter per counted chain, one bit per other task.
  constexpr std::uint32_t kBitTracked = UINT32_MAX;
  std::vector<std::uint32_t> counterOf(groupSize.size(), kBitTracked);
  std::size_t counters = 0;
  for (std::size_t g = 0; g < groupSize.size(); ++g)
    if (chained[g] && groupSize[g] >= kMinCountedChain)
      counterOf[g] = static_cast<std::uint32_t>(counters++);
  std::vector<std::uint32_t> bitOf(n, 0);
  std::size_t bits = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (counterOf[groupOf[v]] == kBitTracked)
      bitOf[v] = static_cast<std::uint32_t>(bits++);
  const std::size_t words = (bits + 63) / 64;
  std::vector<std::uint32_t> prefixRows(n * counters, 0);
  std::vector<std::uint64_t> bitRows(n * words, 0);

  std::size_t removed = 0;
  std::vector<bool> implied;
  for (std::size_t v = 0; v < n; ++v) {
    Task& t = program.tasks[v];
    std::uint32_t* prefix = prefixRows.data() + v * counters;
    std::uint64_t* row = bitRows.data() + v * words;

    // Union of the predecessors' ancestor sets.
    for (const TaskDep& dep : t.in) {
      const std::size_t p = dep.producer;
      const std::uint32_t* pPrefix = prefixRows.data() + p * counters;
      for (std::size_t c = 0; c < counters; ++c)
        prefix[c] = std::max(prefix[c], pPrefix[c]);
      const std::uint64_t* pRow = bitRows.data() + p * words;
      for (std::size_t w = 0; w < words; ++w)
        row[w] |= pRow[w];
    }

    // An edge is redundant iff its producer is an ancestor of another
    // direct predecessor (a task is never its own ancestor, so membership
    // in the union is exactly that test).
    implied.clear();
    for (const TaskDep& dep : t.in) {
      const std::uint32_t p = dep.producer;
      const std::uint32_t c = counterOf[groupOf[p]];
      implied.push_back(c != kBitTracked
                            ? posInGroup[p] < prefix[c]
                            : ((row[bitOf[p] / 64] >> (bitOf[p] % 64)) & 1));
    }

    // ancestors(t) = union of predecessors' ancestors + the predecessors.
    // Computed from the *original* edges — the reduction preserves the
    // closure, so either edge set yields the same ancestor sets.
    for (const TaskDep& dep : t.in) {
      const std::uint32_t p = dep.producer;
      const std::uint32_t c = counterOf[groupOf[p]];
      if (c != kBitTracked)
        prefix[c] = std::max(prefix[c], posInGroup[p] + 1);
      else
        row[bitOf[p] / 64] |= std::uint64_t{1} << (bitOf[p] % 64);
    }

    // Keep the rest.
    std::size_t keep = 0;
    for (std::size_t k = 0; k < t.in.size(); ++k) {
      if (implied[k] && !(program.chainOrdering && t.in[k].selfOrdering)) {
        ++removed;
        continue;
      }
      t.in[keep++] = t.in[k];
    }
    t.in.resize(keep);
  }
  return removed;
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
///
/// Producer ids are remapped onto the fused tasks: a fused task keeps its
/// first task's in-dependencies, and only the task folded in after it
/// depended on a folded task's out tag.
std::size_t fuseChains(TaskProgram& program, std::size_t width) {
  const std::size_t n = program.tasks.size();
  if (n < 2 || width < 2)
    return 0;
  std::vector<std::uint32_t> dependents(n, 0);
  for (const Task& t : program.tasks)
    for (const TaskDep& dep : t.in)
      ++dependents[dep.producer];
  std::vector<std::uint32_t> fusedId(n);

  std::vector<Task> fused;
  fused.reserve(n);
  std::size_t eliminated = 0;
  for (std::size_t i = 0; i < n;) {
    Task merged = std::move(program.tasks[i]);
    const std::size_t head = i;
    std::size_t tail = i; // original id of the last task folded in
    std::size_t run = 1;
    while (run < width && tail + 1 < n) {
      const Task& next = program.tasks[tail + 1];
      // Never fuse across task kinds: a combine task must stay a
      // separate fold step (its iterations use a different arity and the
      // reduction runners dispatch on it).
      if (next.stmtIdx != merged.stmtIdx || next.kind != merged.kind ||
          merged.kind != TaskKind::Block || dependents[tail] != 1 ||
          next.in.size() != 1 || next.in[0].producer != tail ||
          !merged.iterations.adjoins(next.iterations))
        break;
      merged.iterations.extend(next.iterations);
      merged.out = next.out;
      merged.blockRep = next.blockRep;
      ++tail;
      ++run;
      ++eliminated;
    }
    merged.id = fused.size();
    merged.out.producer = static_cast<std::uint32_t>(merged.id);
    for (std::size_t k = head; k <= tail; ++k)
      fusedId[k] = merged.out.producer;
    for (TaskDep& dep : merged.in)
      dep.producer = fusedId[dep.producer];
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
  return os.str();
}

OptimizeStats optimize(codegen::TaskProgram& program,
                       const OptimizeOptions& options) {
  trace::Span span("opt.optimize");
  OptimizeStats stats;
  stats.tasksBefore = stats.tasksAfter = program.tasks.size();
  stats.edgesBefore = stats.edgesAfter = countEdges(program);
  if (options.transitiveReduction) {
    trace::Span pass("opt.transitive_reduction");
    stats.edgesRemoved = transitiveReduce(program);
  }
  if (options.fusionWidth > 1) {
    trace::Span pass("opt.chain_fusion");
    stats.tasksFused = fuseChains(program, options.fusionWidth);
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
  if (numSlots != n || inOffsets.size() != n + 1 ||
      inOffsets.front() != 0 || inOffsets.back() != inSlots.size())
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<TaskDep>& in = program.tasks[i].in;
    if (inOffsets[i] > inOffsets[i + 1] || inCount(i) != in.size())
      return false;
    for (std::size_t k = 0; k < in.size(); ++k)
      if (inBegin(i)[k] != in[k].producer || in[k].producer >= i)
        return false;
  }
  return true;
}

SlotTable buildSlotTable(const codegen::TaskProgram& program) {
  trace::Span span("opt.slot_table");
  SlotTable table;
  table.numSlots = static_cast<std::uint32_t>(program.tasks.size());
  table.inOffsets.reserve(program.tasks.size() + 1);
  table.inOffsets.push_back(0);
  for (const Task& t : program.tasks) {
    for (const TaskDep& dep : t.in) {
      PIPOLY_CHECK_MSG(dep.producer < t.id,
                       "in-dependency without an earlier producing task");
      table.inSlots.push_back(dep.producer);
    }
    table.inOffsets.push_back(static_cast<std::uint32_t>(table.inSlots.size()));
  }
  return table;
}

} // namespace pipoly::opt
