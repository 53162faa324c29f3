#pragma once

// The test-only half of the paper's operation set (§3.1, §4.1). Set-up
// (detection, scheduling, lowering, comm) calls only the operations that
// IntTupleSet, IntMap and Polyhedron keep; the ones below serve the
// oracles in this directory (legacy_*.hpp, the parser, pipelineMapNaive),
// the fixtures and the unit tests of the production operations. They are
// free functions over points() / pairs(), written to be obviously right
// rather than fast, and they live in the pipoly_testing library, which
// nothing under src/, bench/ or examples/ links.

#include "presburger/map.hpp"
#include "presburger/polyhedron.hpp"
#include "presburger/set.hpp"
#include "scop/scop.hpp"

#include <optional>
#include <utility>
#include <vector>

namespace pipoly::pb {

/// All integer points of `poly`, in lexicographic order.
std::vector<Tuple> enumerate(const Polyhedron& poly);

/// The rectangular set [0,ext0) x [0,ext1) x ...
IntTupleSet rectangle(Space space, const std::vector<Value>& extents);

/// The points of `set` satisfying `keep` (called with a `const Tuple&`).
template <typename Pred>
IntTupleSet filter(const IntTupleSet& set, Pred&& keep) {
  std::vector<Tuple> kept;
  for (TupleView t : set.points()) {
    Tuple point(t);
    if (keep(point))
      kept.push_back(std::move(point));
  }
  return IntTupleSet(set.space(), std::move(kept));
}

/// { x -> f(x) : x in domain }; `f` takes a `const Tuple&` and returns a
/// tuple of `out`'s arity.
template <typename Fn>
IntMap fromFunction(const IntTupleSet& domain, Space out, Fn&& f) {
  std::vector<IntMap::Pair> pairs;
  for (TupleView t : domain.points()) {
    Tuple in(t);
    Tuple image = f(in);
    pairs.emplace_back(std::move(in), std::move(image));
  }
  return IntMap(domain.space(), std::move(out), std::move(pairs));
}

/// a \ b and a ⊆ b, for sets or maps over the same spaces.
IntTupleSet subtract(const IntTupleSet& a, const IntTupleSet& b);
IntMap subtract(const IntMap& a, const IntMap& b);
bool isSubsetOf(const IntTupleSet& a, const IntTupleSet& b);
bool isSubsetOf(const IntMap& a, const IntMap& b);

/// The lexicographically smallest point; the set must be non-empty.
Tuple lexmin(const IntTupleSet& set);

/// The paper's lexleset(I, B): { i -> b : i in I, b in B, i lexle b }.
/// Both sets must share a space.
IntMap lexLeSet(const IntTupleSet& from, const IntTupleSet& bounds);

/// { x -> y : x, y in set, y lexle x }: the D' relation of §4.1 over
/// Dom(P).
IntMap lexGeContains(const IntTupleSet& set);

/// The images of one point, in lexicographic order.
std::vector<Tuple> imagesOf(const IntMap& m, const Tuple& in);

/// The unique image of `in`; throws if `m` is not single-valued there,
/// nullopt when `in` is outside the domain.
std::optional<Tuple> singleImageOf(const IntMap& m, const Tuple& in);

/// The paper's lexmin(M): the smallest image of each domain element.
IntMap lexminPerDomain(const IntMap& m);

/// No input has two outputs.
bool isSingleValued(const IntMap& m);

} // namespace pipoly::pb

namespace pipoly::pipeline {

/// The pipeline map T_{S,T} by literal composition with the explicit D'
/// map, as §4.1 writes it: H = lexmax(P(D')), T = lexmax(H^-1). Quadratic
/// in |Dom(P)|; the oracle `pipelineMap` is checked against.
pb::IntMap pipelineMapNaive(const scop::AccessRelations& rel,
                            std::size_t srcIdx, std::size_t tgtIdx,
                            bool allowNonInjective = false);

} // namespace pipoly::pipeline
