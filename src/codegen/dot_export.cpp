#include "codegen/dot_export.hpp"

#include "support/assert.hpp"

#include <set>
#include <sstream>

namespace pipoly::codegen {

std::string toDot(const TaskProgram& program, const scop::Scop& scop,
                  const std::optional<ProgramCounts>& preOptCounts,
                  const pipeline::CommInfo* comm) {
  std::ostringstream os;
  os << "digraph tasks {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontsize=10];\n";
  if (preOptCounts) {
    const ProgramCounts after = program.counts();
    os << "  label=\"optimized: " << preOptCounts->tasks << " -> "
       << after.tasks << " tasks, " << preOptCounts->inEdges << " -> "
       << after.inEdges << " edges\";\n  labelloc=t;\n";
  }

  // One cluster per statement, tasks in block order.
  for (std::size_t s = 0; s < program.numStatements; ++s) {
    os << "  subgraph cluster_" << s << " {\n"
       << "    label=\"" << scop.statement(s).name() << "\";\n";
    for (const Task& t : program.tasks) {
      if (t.stmtIdx != s)
        continue;
      if (t.kind == TaskKind::ReductionCombine) {
        // The relaxed-reduction combine step: double octagon, fold count.
        os << "    t" << t.id << " [shape=doubleoctagon, label=\""
           << scop.statement(s).name() << " combine\\n"
           << t.iterations.size() << " partials\"];\n";
        continue;
      }
      os << "    t" << t.id << " [label=\"" << scop.statement(s).name()
         << t.blockRep.toString() << "\\n" << t.iterations.size()
         << " its\"];\n";
    }
    os << "  }\n";
  }

  std::set<std::pair<std::size_t, std::size_t>> labelled;
  for (const Task& t : program.tasks) {
    for (const TaskDep& dep : t.in) {
      const std::size_t src = dep.producer;
      os << "  t" << src << " -> t" << t.id;
      if (dep.selfOrdering) {
        os << " [style=dashed]";
      } else if (comm != nullptr) {
        // Volume/capacity label on the first edge of each statement pair
        // only: the numbers are per-pair, repeating them is pure clutter.
        const std::size_t srcStmt = program.tasks[src].stmtIdx;
        if (srcStmt != t.stmtIdx &&
            labelled.emplace(srcStmt, t.stmtIdx).second)
          if (const pipeline::EdgeComm* e = comm->edge(srcStmt, t.stmtIdx))
            os << " [label=\"" << e->totalBytes << " B, cap "
               << e->capacitySlots << "\", fontsize=9]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

} // namespace pipoly::codegen
