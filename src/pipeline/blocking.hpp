#pragma once

// §4.2 — blocking. A blocking partitions an iteration domain into
// contiguous (in lexicographic order) blocks and represents each block by
// its lexicographically largest member (the block *representative*).
// Block boundaries come from a pipeline map: Dom(T) for the source
// statement, Range(T) for the target statement (eq. 2). Iterations past
// the last boundary form a remainder block represented by lexmax of the
// domain (the paper's final-block rule).
//
// The integrated per-statement blocking Σ_S (eq. 3) is the lexmin of the
// union of all source and target blocking maps of S. Every iteration then
// gets the smallest boundary lexge it across all of those maps, which is
// the blocking by the union of their boundary sets. So Σ_S is kept as
// boundary rows only: the representatives, and per block the domain row
// it starts at. Block b is the run of domain rows [start_b, start_b+1).
// The explicit map form (iteration -> representative) is a test oracle.

#include "presburger/set.hpp"

#include <cstdint>
#include <vector>

namespace pipoly::pipeline {

/// The representatives of the blocking of `domain` by the union of
/// `boundarySets` (each a subset of `domain`): the sorted union of the
/// boundary rows plus lexmax(domain), the remainder block's
/// representative. Empty for an empty domain.
pb::IntTupleSet blockReps(const pb::IntTupleSet& domain,
                          const std::vector<pb::IntTupleSet>& boundarySets);

/// The interval form of a blocking: per representative of `reps` (a
/// subset of `domain` holding lexmax(domain)), the domain row its block
/// starts at, then |domain|. Block b owns the domain rows
/// [starts[b], starts[b + 1]). Throws when a representative is not in
/// `domain`.
std::vector<std::uint32_t> blockStarts(const pb::IntTupleSet& domain,
                                       const pb::IntTupleSet& reps);

/// Ordinal of the block of `reps` that holds `iteration` (a row of the
/// reps' arity): the first representative lexge it, or reps.size() when
/// the iteration lies past the last block. `hint` is where the search
/// starts, typically the previous answer when the iterations arrive in
/// increasing order; any hint gives the same answer.
std::size_t blockOf(const pb::IntTupleSet& reps, const pb::Value* iteration,
                    std::size_t hint = 0);

} // namespace pipoly::pipeline
