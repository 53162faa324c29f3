#include "codegen/json_export.hpp"

#include "support/assert.hpp"
#include "trace/chrome_trace.hpp"

#include <sstream>

namespace pipoly::codegen {

std::string toJson(const TaskProgram& program, const scop::Scop& scop,
                   const std::optional<ProgramCounts>& preOptCounts,
                   const pipeline::CommInfo* comm) {
  std::vector<std::size_t> blocksPerStmt(scop.numStatements(), 0);
  for (const Task& t : program.tasks)
    ++blocksPerStmt[t.stmtIdx];

  std::ostringstream os;
  os << "{\n  \"scop\": \"" << trace::jsonEscape(scop.name()) << "\",\n"
     << "  \"chainOrdering\": " << (program.chainOrdering ? "true" : "false");
  if (preOptCounts) {
    const ProgramCounts after = program.counts();
    os << ",\n  \"optimization\": {\"tasksBefore\": " << preOptCounts->tasks
       << ", \"tasks\": " << after.tasks
       << ", \"edgesBefore\": " << preOptCounts->inEdges
       << ", \"edges\": " << after.inEdges << '}';
  }
  if (comm != nullptr) {
    os << ",\n  \"communication\": {\"totalBytes\": " << comm->totalBytes()
       << ", \"edges\": [\n";
    for (std::size_t k = 0; k < comm->edges.size(); ++k) {
      const pipeline::EdgeComm& e = comm->edges[k];
      os << "    {\"src\": " << e.srcIdx << ", \"tgt\": " << e.tgtIdx
         << ", \"elements\": " << e.elements << ", \"bytes\": "
         << e.totalBytes << ", \"maxBlockBytes\": " << e.maxBlockBytes
         << ", \"peakTokens\": " << e.peakInFlightTokens
         << ", \"peakBytes\": " << e.peakInFlightBytes << ", \"capacity\": "
         << e.capacitySlots << ", \"parametric\": "
         << (e.parametric ? "true" : "false") << '}'
         << (k + 1 < comm->edges.size() ? "," : "") << '\n';
    }
    os << "  ]}";
  }
  os << ",\n  \"statements\": [\n";
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const scop::Statement& stmt = scop.statement(s);
    os << "    {\"name\": \"" << trace::jsonEscape(stmt.name())
       << "\", \"depth\": " << stmt.depth()
       << ", \"iterations\": " << stmt.domain().size()
       << ", \"blocks\": " << blocksPerStmt[s] << '}'
       << (s + 1 < scop.numStatements() ? "," : "") << '\n';
  }
  os << "  ],\n  \"tasks\": [\n";
  for (const Task& t : program.tasks) {
    os << "    {\"id\": " << t.id << ", \"stmt\": " << t.stmtIdx
       << ", \"block\": [";
    for (std::size_t d = 0; d < t.blockRep.size(); ++d)
      os << (d ? ", " : "") << t.blockRep[d];
    os << "], \"iterations\": " << t.iterations.size();
    if (t.kind == TaskKind::ReductionCombine)
      os << ", \"combine\": true";
    os << ", \"deps\": [";
    for (std::size_t k = 0; k < t.in.size(); ++k) {
      os << (k ? ", " : "") << "{\"task\": "
         << t.in[k].producer << ", \"self\": "
         << (t.in[k].selfOrdering ? "true" : "false") << '}';
    }
    os << "]}" << (t.id + 1 < program.tasks.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

} // namespace pipoly::codegen
