#pragma once

// A symbolic fast path for the pipeline map (§4.1). The explicit
// computation builds the producer relation P = Wr^-1(Rd) point by point —
// O(|target domain| x reads). For the very common shape
//
//   * the source writes A[i0][i1]... (the identity access), and
//   * every target read of A is separable and monotone:
//     A[c0*j0 + o0][c1*j1 + o1]... with c_d >= 1
//
// the map has a closed form: P is lexicographically monotone, so
// H(j) = lexmax over reads of (c*j + o) and T = H^-1 directly — no
// relation materialisation and no prefix maximisation needed.
//
// The result is bit-identical to pipelineMap() (tests cross-check); the
// driver uses it automatically when it applies.

#include "presburger/map.hpp"
#include "scop/scop.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace pipoly::pipeline {

/// Attempts the symbolic computation; nullopt when the accesses do not
/// have the required shape (the caller falls back to the explicit path).
std::optional<pb::IntMap> trySymbolicPipelineMap(const scop::Scop& scop,
                                                 std::size_t srcIdx,
                                                 std::size_t tgtIdx);

/// True when every write of `arrayId` by statement `stmtIdx` is the
/// identity access A[i0][i1]..., so element e is written by iteration e.
bool writesIdentity(const scop::Scop& scop, std::size_t stmtIdx,
                    std::size_t arrayId);

/// True when the source/target pair satisfies the fast-path conditions.
bool symbolicPipelineApplies(const scop::Scop& scop, std::size_t srcIdx,
                             std::size_t tgtIdx);

// ---------------------------------------------------------------------
// The parametric-first route (the first rung of detect.hpp's route
// ladder): a stricter shape than the per-point symbolic path above, in
// exchange for a fully closed-form pipeline map. A pair qualifies when
//
//   * the target reads exactly one array the source writes, through
//     exactly one access with no aux dims,
//   * every source write of that array is the identity access,
//   * the read is separable and monotone: subscript_d = c_d*j_d + o_d
//     with c_d >= 1 (equal depths), and
//   * both iteration domains are full rectangles.
//
// Then T = { c⊙j+o -> j : j in R } where R clips the target rectangle by
// the preimage of the source rectangle — emitted directly in sorted row
// order, no dependence test and no per-point requirement scan needed.
// The result is bit-identical to trySymbolicPipelineMap / pipelineMap.

/// Why classifySeparablePair rejected a pair (order matters: the first
/// failing condition is reported, and detect's route counters index on
/// these values).
enum class ParametricFallback : unsigned char {
  None = 0,             // shape accepted
  NoSharedArray,        // vacuous pair: target reads nothing source writes
  MultipleReads,        // several shared arrays or several reads of one
  NonIdentityWrite,     // source write is not the identity access
  AuxRead,              // the read has auxiliary dimensions
  NonSeparableRead,     // coupled subscripts or mismatched depths
  NonMonotoneRead,      // some per-dim coefficient < 1
  NonRectangularDomain, // a domain is not a full rectangle
  kCount
};

const char* toString(ParametricFallback f);

/// The classified shape of a parametric-eligible pair. The coefficient,
/// offset and inclusive-box fields are valid only when ok() and both
/// domains are non-empty (`vacuous == false`).
struct SeparablePairShape {
  ParametricFallback fallback = ParametricFallback::None;
  bool vacuous = false; // accepted, but a domain is empty: no map
  std::vector<pb::Value> coeffs;  // c_d >= 1
  std::vector<pb::Value> offsets; // o_d, any sign
  std::vector<pb::DimBounds> srcBox, tgtBox; // inclusive per-dim bounds

  bool ok() const { return fallback == ParametricFallback::None; }
};

SeparablePairShape classifySeparablePair(const scop::Scop& scop,
                                         std::size_t srcIdx,
                                         std::size_t tgtIdx);

/// The readers rectangle R of an accepted, non-vacuous shape: the target
/// box clipped per dimension by the preimage of the source box under
/// j_d -> c_d*j_d + o_d, i.e. exactly the target iterations whose read
/// hits a written element. nullopt when R is empty (no dependence).
std::optional<std::vector<pb::DimBounds>>
readersBox(const SeparablePairShape& shape);

/// How many consumed elements of an accepted, non-vacuous shape lie
/// lexicographically before `point` (a source iteration: srcBox's arity
/// values). The consumed elements are the lattice box { c⊙j+o : j in box }
/// over the readers box `box`; the count takes O(depth), no point of it
/// is enumerated. With identity writes element e is produced by source
/// iteration e, so the difference of two counts is what a run of source
/// iterations feeds the target.
std::uint64_t consumedBefore(const SeparablePairShape& shape,
                             const std::vector<pb::DimBounds>& box,
                             const pb::Value* point);

/// The closed-form pipeline map for an accepted shape. Empty when the
/// pair has no dependence (the readers rectangle R is empty) — exactly
/// the condition under which the legacy route finds no map.
pb::IntMap separablePipelineMap(const scop::Scop& scop, std::size_t srcIdx,
                                std::size_t tgtIdx,
                                const SeparablePairShape& shape);

} // namespace pipoly::pipeline
