#pragma once

// §4.1 — the pipeline map T_{S,T} between a source statement S and a
// target statement T:
//
//   (i, j) ∈ T_{S,T}  iff  after running all iterations of S up to i, all
//   iterations of T up to j can safely run, with i lex-minimal and j
//   lex-maximal for that property.
//
// Computed as in the paper:
//   P  = Wr^-1 (Rd)                    (relates target to source iterations)
//   D' = { j -> j' : j' lexle j }      (over Dom(P))
//   H  = lexmax(P(D'))                 (last source iteration j transitively
//                                       depends on)
//   T_{S,T} = lexmax(H^-1)
//
// pipelineMap streams this: it needs only lexmax P(j), which it reads off
// a per-element last-writer table instead of composing Wr^-1 and Rd, and
// it exploits the monotonicity of H over the lexicographic order to avoid
// materialising the O(|J|^2) D' map. The literal composition is the test
// oracle it is checked against.

#include "presburger/map.hpp"
#include "scop/scop.hpp"

namespace pipoly::pipeline {

/// The relation P = Wr^-1(Rd) over every array written by `srcIdx` and
/// read by `tgtIdx`: { target iteration -> source iteration producing one
/// of its operands }. By default this checks the paper's no-overwrite
/// assumption (each per-array write relation must be injective).
///
/// With `allowNonInjective` (the §7 relaxation) overwriting sources are
/// accepted: P then relates a read to *every* writer of the location, so
/// the lexmax in H covers the last writer and a target block only runs
/// once the location holds its final value — which is exactly the value
/// the original sequential program reads.
pb::IntMap producerRelation(const scop::AccessRelations& rel,
                            std::size_t srcIdx, std::size_t tgtIdx,
                            bool allowNonInjective = false);

/// The pipeline map T_{S,T} (source space -> target space). Returns an
/// empty map when the target does not read anything the source writes.
pb::IntMap pipelineMap(const scop::AccessRelations& rel, std::size_t srcIdx,
                       std::size_t tgtIdx, bool allowNonInjective = false);

/// The H relation (target iteration -> last transitively-required source
/// iteration); exposed for tests and for the AST annotations.
pb::IntMap lastRequirementMap(const pb::IntMap& producer);

} // namespace pipoly::pipeline
