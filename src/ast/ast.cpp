#include "ast/ast.hpp"

#include "schedule/build.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace pipoly::ast {

Ast buildAst(const scop::Scop& scop, const sched::ScheduleNode& root) {
  sched::validatePipelineSchedule(root, scop);
  Ast ast;
  ast.nests.reserve(root.numChildren());
  for (std::size_t s = 0; s < root.numChildren(); ++s) {
    const sched::ScheduleNode& domainNode = root.child(s);
    const sched::ScheduleNode& blockBand = domainNode.child(0);
    const sched::ScheduleNode& expansion = blockBand.child(0);
    const sched::ScheduleNode& mark = expansion.child(0);
    const sched::PipelineMark& info = mark.markInfo();

    AstLoopNest nest;
    nest.stmtIdx = info.stmtIdx;
    nest.stmtName = scop.statement(info.stmtIdx).name();
    nest.blockReps = domainNode.domainSet();
    nest.blockStarts = expansion.blockStarts();
    nest.pipelineLoopDepth = nest.blockReps.space().arity() - 1;
    nest.annotation =
        TaskAnnotation{info.stmtIdx, info.inRequirements, info.chainOrdering,
                       info.selfEdges, info.reduction};
    ast.nests.push_back(std::move(nest));
  }
  return ast;
}

namespace {

/// Per-outer-value bounds of the last coordinate of a set; used to print
/// loop bounds. Returns (uniformLower, uniformUpper) when the bounds do
/// not depend on the outer coordinates, nullopt components otherwise.
struct LastDimBounds {
  bool uniform;
  pb::Value lower = 0, upper = 0;
};

LastDimBounds lastDimBounds(const pb::IntTupleSet& set) {
  std::map<pb::Tuple, std::pair<pb::Value, pb::Value>> byPrefix;
  const std::size_t d = set.space().arity();
  for (const pb::Tuple& t : set.points()) {
    pb::Tuple prefix = t.slice(0, d - 1);
    pb::Value v = t[d - 1];
    auto [it, fresh] = byPrefix.try_emplace(prefix, v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  }
  LastDimBounds out{true};
  bool first = true;
  for (const auto& [prefix, mm] : byPrefix) {
    if (first) {
      out.lower = mm.first;
      out.upper = mm.second;
      first = false;
    } else if (mm.first != out.lower || mm.second != out.upper) {
      out.uniform = false;
    }
  }
  return out;
}

void printLoopHeader(std::ostream& os, int indent, std::size_t dim,
                     pb::Value lo, pb::Value hi, pb::Value stride,
                     bool uniform, bool isPipelineLoop) {
  os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
  os << "for (c" << dim << " = " << lo << "; c" << dim << " <= " << hi
     << "; c" << dim << " += " << (stride > 0 ? stride : 1) << ")";
  if (!uniform)
    os << " /* bounds vary with outer dims; shown: hull */";
  if (isPipelineLoop)
    os << " // pipeline loop";
  os << " {\n";
}

} // namespace

std::string printAst(const Ast& ast, const scop::Scop& scop) {
  std::ostringstream os;
  for (const AstLoopNest& nest : ast.nests) {
    const std::size_t depth = nest.blockReps.space().arity();
    os << "// loop nest of statement " << nest.stmtName << " ("
       << nest.blockReps.size() << " blocks, "
       << scop.statement(nest.stmtIdx).domain().size() << " iterations)\n";

    // Outer block loops: print hull bounds and the detected stride per
    // dimension (e.g. the even-column block boundaries of Listing 1 show
    // as `c1 += 2`).
    const std::vector<pb::DimBounds> hull = nest.blockReps.rectangularHull();
    for (std::size_t d = 0; d < depth; ++d) {
      bool uniform = true;
      if (d + 1 == depth) {
        LastDimBounds b = lastDimBounds(nest.blockReps);
        uniform = b.uniform;
      }
      printLoopHeader(os, static_cast<int>(d), d, hull[d].lower,
                      hull[d].upper, nest.blockReps.strideOfDim(d), uniform,
                      d == nest.pipelineLoopDepth);
    }

    const std::string bodyPad(depth * 2, ' ');
    os << bodyPad << "// task: " << nest.stmtName << " block [c0..c"
       << depth - 1 << "]";
    os << "; out-dep: (" << nest.stmtIdx << ", block)";
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      os << "; in-dep: stmt " << req.srcStmtIdx
         << (req.viaCombine ? " via combine" : " via Q");
    if (nest.annotation.reduction.relaxed)
      os << "; reduction("
         << scop::reductionOpName(nest.annotation.reduction.op)
         << ") -> partial blocks + combine";
    os << '\n';
    os << bodyPad << nest.stmtName << "_block(c0..c" << depth - 1 << ");\n";

    for (std::size_t d = depth; d-- > 0;)
      os << std::string(d * 2, ' ') << "}\n";
  }
  return os.str();
}

std::string printAnnotatedSource(const Ast& ast, const scop::Scop& scop) {
  std::ostringstream os;
  os << "#pragma omp parallel\n#pragma omp single\n{\n";
  for (const AstLoopNest& nest : ast.nests) {
    const std::size_t depth = nest.blockReps.space().arity();
    const std::vector<pb::DimBounds> hull = nest.blockReps.rectangularHull();
    std::string pad = "  ";
    for (std::size_t d = 0; d < depth; ++d) {
      os << pad << "for (c" << d << " = " << hull[d].lower << "; c" << d
         << " <= " << hull[d].upper << "; c" << d << " += "
         << std::max<pb::Value>(1, nest.blockReps.strideOfDim(d)) << ")";
      if (d == nest.pipelineLoopDepth)
        os << " /* pipeline loop */";
      os << "\n";
      pad += "  ";
    }
    // The task pragma: out-dependency on this block's slot, in-deps from
    // the Q_S maps (symbolically: the source statement's dependency slot
    // indexed by the requirement map) plus the same-nest ordering.
    os << pad << "#pragma omp task \\\n"
       << pad << "    depend(out: dep_" << nest.stmtName << "[c0..c"
       << depth - 1 << "])";
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      os << " \\\n"
         << pad << "    depend(in: dep_"
         << scop.statement(req.srcStmtIdx).name() << "[Q_"
         << nest.stmtName << "^" << scop.statement(req.srcStmtIdx).name()
         << "(c0..c" << depth - 1 << ")])";
    if (nest.annotation.chainOrdering)
      os << " \\\n"
         << pad << "    depend(in: self[funcCount[" << nest.stmtIdx
         << "] - 1]) depend(out: self[funcCount[" << nest.stmtIdx << "]])";
    os << "\n" << pad << nest.stmtName << "_block(c0..c" << depth - 1
       << ");\n";
  }
  os << "}\n";
  return os.str();
}

} // namespace pipoly::ast
