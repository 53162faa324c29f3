#pragma once

// §5.3 — AST generation. The schedule tree is lowered to an AST whose
// shape mirrors Fig. 6: one loop nest per statement, where the loops
// iterate over block coordinates, the innermost block loop is the
// *pipeline loop*, and its body is a task annotated (via the schedule
// tree's mark nodes) with the pipeline dependency information.
//
// Because the library operates on instantiated SCoPs, the AST keeps the
// explicit block structure (block representatives + each block's interval
// of the sorted domain) rather than symbolic bounds; the printer renders Fig.-6-style pseudo-C
// with concrete bounds for inspection.

#include "pipeline/detect.hpp"
#include "schedule/tree.hpp"
#include "scop/scop.hpp"

#include <string>
#include <vector>

namespace pipoly::ast {

/// The task annotation attached to the body of a pipeline loop
/// (§5.3: "they also contain the pipeline dependency information").
struct TaskAnnotation {
  std::size_t stmtIdx = 0;
  std::vector<pipeline::InRequirement> inRequirements;
  /// Same-nest ordering mode; see pipeline::StatementPipelineInfo.
  bool chainOrdering = true;
  pb::IntMap selfEdges;
  /// Reduction relaxation of this statement; when `reduction.relaxed`
  /// the lowering appends a combine task after the partial blocks.
  pipeline::ReductionInfo reduction;
};

/// One loop nest of the generated AST.
struct AstLoopNest {
  std::size_t stmtIdx;
  std::string stmtName;
  /// Iteration space of the block loops (= block representatives, walked
  /// lexicographically).
  pb::IntTupleSet blockReps;
  /// The intra-block loops: block b runs the statement's domain rows
  /// [blockStarts[b], blockStarts[b + 1]) (one entry per block, then
  /// |D_S|).
  std::vector<std::uint32_t> blockStarts;
  /// Depth of the pipeline loop within the block loops (the innermost
  /// block dimension).
  std::size_t pipelineLoopDepth;
  TaskAnnotation annotation;
};

struct Ast {
  std::vector<AstLoopNest> nests; // textual (sequence) order
};

/// Lowers a pipelined schedule tree (Algorithm 2 output) to the AST.
Ast buildAst(const scop::Scop& scop, const sched::ScheduleNode& root);

/// Renders the AST as Fig.-6-style pseudo-C, with `// task` annotations on
/// every pipeline loop body.
std::string printAst(const Ast& ast, const scop::Scop& scop);

/// Renders the AST as OpenMP-annotated pseudo-source: the pipeline-loop
/// body becomes `#pragma omp task depend(...)` with symbolic in/out
/// dependency expressions — the presentation form of the paper's
/// generated code (§5.4/§5.5).
std::string printAnnotatedSource(const Ast& ast, const scop::Scop& scop);

} // namespace pipoly::ast
