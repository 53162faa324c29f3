#pragma once

// Reduction dependence detection (after Doerfert et al., "Polly's
// Polyhedral Scheduling in the Presence of Reductions"). A statement of
// the shape
//
//   A[f(i)] = A[f(i)] ⊕ expr        (⊕ associative and commutative,
//                                     expr not reading A)
//
// carries self-dependences only through the accumulation chain on A.
// Because ⊕ is associative and commutative those dependences do not
// constrain the order of the partial combinations — Algorithm 1 may drop
// them when building the blocking maps (eq. 2/3), split the nest into
// parallel partial-reduction blocks that accumulate into privatized
// partial buffers, and restore the original value with one combine step
// per block (the lowering emits it as an extra task; MARS-style legality
// of the re-partitioning: every relaxed edge is a self-dependence on the
// reduction access, everything else still flows through the pipeline
// maps).
//
// The classifier is deliberately strict: a statement qualifies only when
// its single write and exactly one read of the written array use the
// identical subscript function (no aux dims), a combination operator is
// declared on the statement, and the write relation is genuinely
// non-injective over the domain (otherwise there is nothing to relax and
// the legacy route already pipelines it).

#include "presburger/map.hpp"
#include "scop/scop.hpp"

#include <string_view>
#include <vector>

namespace pipoly::pipeline {

/// Why a statement was not classified as a relaxable reduction (for
/// stats, traces and the fuzz oracle).
enum class ReductionReject : unsigned char {
  None, // classified
  NotSingleWrite,
  AuxDims,
  NoMatchingRead,
  ExtraArrayRead,
  NoDeclaredOp,
  NoSelfDependence,
  kCount,
};

std::string_view toString(ReductionReject r);

/// Classification result for one statement.
struct ReductionInfo {
  bool relaxed = false;
  std::size_t arrayId = 0; // the reduction array (valid when relaxed)
  scop::ReductionOp op = scop::ReductionOp::None;
  ReductionReject reject = ReductionReject::None;
};

/// Classifies one statement. Pure structural analysis over the declared
/// accesses plus one injectivity check of the write relation.
ReductionInfo classifyReduction(const scop::AccessRelations& rel,
                                std::size_t stmtIdx);

/// Classifies every statement of the SCoP.
std::vector<ReductionInfo> classifyReductions(const scop::Scop& scop);

/// The dependences the relaxation drops for a classified statement: the
/// lex-increasing self-dependence pairs carried by the reduction array.
/// For a statement the classifier accepted this equals ALL of its
/// self-dependences (the single write is the reduction access), which is
/// what makes the relaxed nest fully parallel across blocks. Exposed for
/// the differential/fuzz suites.
pb::IntMap relaxedSelfDependences(const scop::Scop& scop,
                                  std::size_t stmtIdx);

} // namespace pipoly::pipeline
