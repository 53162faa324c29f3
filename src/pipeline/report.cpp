#include "pipeline/report.hpp"

#include "scop/dependences.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <sstream>

namespace pipoly::pipeline {

namespace {

std::string describeParallelism(const scop::Scop& scop, std::size_t s) {
  std::vector<bool> par = scop::parallelDims(scop, s);
  std::vector<std::size_t> carried;
  for (std::size_t d = 0; d < par.size(); ++d)
    if (!par[d])
      carried.push_back(d);
  if (carried.empty())
    return "fully parallel";
  std::ostringstream os;
  os << "serial (carried deps at dim" << (carried.size() > 1 ? "s " : " ");
  for (std::size_t i = 0; i < carried.size(); ++i)
    os << (i ? ", " : "") << carried[i];
  os << ')';
  return os.str();
}

std::string describeStride(const pb::IntTupleSet& boundaries) {
  std::ostringstream os;
  os << '(';
  for (std::size_t d = 0; d < boundaries.space().arity(); ++d)
    os << (d ? ", " : "") << boundaries.strideOfDim(d);
  os << ')';
  return os.str();
}

std::size_t medianBlockSize(const StatementPipelineInfo& st) {
  std::vector<std::size_t> sizes;
  sizes.reserve(st.blockReps.size());
  for (std::size_t b = 0; b < st.blockReps.size(); ++b)
    sizes.push_back(st.blockStarts[b + 1] - st.blockStarts[b]);
  PIPOLY_CHECK(!sizes.empty());
  std::sort(sizes.begin(), sizes.end());
  return sizes[sizes.size() / 2];
}

} // namespace

std::string renderReport(const scop::Scop& scop, const PipelineInfo& info,
                         const CommInfo* comm) {
  std::ostringstream os;
  os << "pipeline report for scop '" << scop.name() << "'\n";

  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const scop::Statement& stmt = scop.statement(s);
    os << "  statement " << stmt.name() << ": " << stmt.domain().size()
       << " iterations (depth " << stmt.depth() << "), "
       << describeParallelism(scop, s) << '\n';
  }

  // Relaxed reductions (printed before the early return: a pure
  // accumulation SCoP has no pipeline maps yet still splits).
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    if (!st.reduction.relaxed)
      continue;
    os << "  reduction " << scop.statement(s).name() << ": relaxed "
       << relaxedSelfDependences(scop, s).size()
       << " self-dependences on array "
       << scop.array(st.reduction.arrayId).name << " (op "
       << scop::reductionOpName(st.reduction.op) << "), "
       << st.blockReps.size() << " partial block"
       << (st.blockReps.size() == 1 ? "" : "s") << " + combine\n";
  }

  if (info.maps.empty()) {
    if (info.stats.reductionStatements == 0)
      os << "  no cross-loop pipeline opportunities detected\n";
    return os.str();
  }

  for (const PipelineMapEntry& entry : info.maps) {
    const std::string& src = scop.statement(entry.srcIdx).name();
    const std::string& tgt = scop.statement(entry.tgtIdx).name();
    const pb::IntTupleSet sources = entry.map.domain();
    os << "  pipeline " << src << " -> " << tgt << ": " << entry.map.size()
       << " stage boundaries, source boundary stride "
       << describeStride(sources) << '\n';
    // Dependence distance flavour: how far ahead the source must be.
    const auto& first = entry.map.pairs().front();
    const auto& last = entry.map.pairs().back();
    os << "    first stage: finish " << src << first.first.toString()
       << " to enable " << tgt << first.second.toString() << "; last: "
       << src << last.first.toString() << " -> " << tgt
       << last.second.toString() << '\n';
  }

  os << "  blocking (eq. 3):";
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const StatementPipelineInfo& st = info.statements[s];
    os << (s ? ", " : " ") << scop.statement(s).name() << " -> "
       << st.blockReps.size() << " blocks (median "
       << medianBlockSize(st) << " its, " << st.inRequirements.size()
       << " in-dep map" << (st.inRequirements.size() == 1 ? "" : "s")
       << ')';
  }
  os << "\n  total tasks: " << info.totalBlocks() << '\n';

  if (comm != nullptr) {
    os << "  communication: " << comm->totalBytes() << " bytes across "
       << comm->edges.size() << " edge" << (comm->edges.size() == 1 ? "" : "s")
       << '\n';
    for (const EdgeComm& e : comm->edges)
      os << "    " << scop.statement(e.srcIdx).name() << " -> "
         << scop.statement(e.tgtIdx).name() << ": " << e.elements
         << " elements (" << e.totalBytes << " B"
         << (e.parametric ? ", parametric" : "") << "), peak in flight "
         << e.peakInFlightTokens << " token"
         << (e.peakInFlightTokens == 1 ? "" : "s") << " ("
         << e.peakInFlightBytes << " B), channel capacity "
         << e.capacitySlots << " slots\n";
  }
  return os.str();
}

} // namespace pipoly::pipeline
