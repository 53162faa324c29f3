#pragma once

// Dependence analysis over the SCoP:
//
//  * cross-statement flow dependences (writer statement -> reader
//    statement), which Algorithm 1 consults to decide whether a pipeline
//    map between a pair of statements exists at all, and which the
//    execution validator uses as ground truth;
//
//  * intra-statement carried-dependence analysis (flow, anti and output
//    self-dependences), which the Polly-like baseline uses to decide which
//    loop dimensions are parallelizable.

#include "presburger/map.hpp"
#include "scop/scop.hpp"

#include <vector>

namespace pipoly::scop {

/// Flow dependences from iterations of `srcIdx` to iterations of `tgtIdx`
/// (over all arrays): { i -> j : src writes some element at i that tgt
/// reads at j }. For srcIdx == tgtIdx only pairs with i lex< j are kept.
pb::IntMap flowDependences(const AccessRelations& rel, std::size_t srcIdx,
                           std::size_t tgtIdx);

/// True when some iteration of `tgtIdx` reads a value written by `srcIdx`.
/// Requires srcIdx < tgtIdx (textual order) or srcIdx == tgtIdx.
bool dependsOn(const AccessRelations& rel, std::size_t tgtIdx,
               std::size_t srcIdx);

/// Per-dimension parallelism of one statement's nest: dimension d is
/// parallel iff no self-dependence (flow, anti or output) is carried at
/// depth d — i.e. no dependent iteration pair first differs at dim d.
std::vector<bool> parallelDims(const Scop& scop, std::size_t stmtIdx);

/// All self-dependences (flow + anti + output) of one statement, restricted
/// to lexicographically increasing pairs.
pb::IntMap selfDependences(const AccessRelations& rel, std::size_t stmtIdx);

/// Enforces the paper's program model (§1): consecutive loop nests where
/// an iteration may depend on earlier iterations of its own nest and on
/// nests before it. Concretely: a later statement must not write to any
/// array an earlier statement reads or writes (no cross-nest anti or
/// output dependences). Throws on violation.
void validateProgramModel(const Scop& scop);

} // namespace pipoly::scop
