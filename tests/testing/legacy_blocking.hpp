#pragma once

// Test-only oracle for the explicit form of §4.2's blocking maps: every
// iteration mapped to its block representative. Detection keeps Σ_S as
// representatives and block start rows (pipeline/blocking.hpp); these
// maps, the literal eq.-2 formula and the eq.-3 lexmin over the maps are
// what the interval form must reproduce.

#include "pipeline/detect.hpp"
#include "presburger/map.hpp"
#include "presburger_ops.hpp"
#include "scop/scop.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <vector>

namespace pipoly::testing {

/// Generic blocking: maps every iteration of `domain` to the smallest
/// element of `boundaries` that is lexge it, or to lexmax(domain) when
/// there is none. `boundaries` must be a subset of `domain`.
inline pb::IntMap blockingMap(const pb::IntTupleSet& domain,
                       const pb::IntTupleSet& boundaries) {
  PIPOLY_CHECK(isSubsetOf(boundaries, domain));
  PIPOLY_CHECK_MSG(!domain.empty(), "blocking an empty domain");
  const std::size_t a = domain.arity();
  if (a == 0)
    return pb::IntMap(domain.space(), domain.space(),
                      {{pb::Tuple{}, pb::Tuple{}}});
  const pb::RowBuffer& dom = domain.rowData();
  const pb::RowBuffer& bnd = boundaries.rowData();
  const std::size_t nd = domain.size(), nb = boundaries.size();
  const pb::Tuple last = domain.lexmax();
  pb::RowBuffer rows;
  rows.reserve(nd * 2 * a);
  // Both row buffers are sorted, so the smallest boundary lexge each
  // iteration advances monotonically: one merge sweep instead of a
  // binary search per iteration. Emission is keyed by the iteration, so
  // the rows come out sorted.
  std::size_t j = 0;
  for (std::size_t i = 0; i < nd; ++i) {
    const pb::Value* it = &dom[i * a];
    while (j < nb && pb::rows::less(&bnd[j * a], it, a))
      ++j;
    pb::rows::append(rows, it, a);
    pb::rows::append(rows, j == nb ? last.data() : &bnd[j * a], a);
  }
  pb::IntMap result = pb::IntMap::fromSortedRows(
      domain.space(), domain.space(), std::move(rows));
  PIPOLY_ASSERT(isSingleValued(result));
  return result;
}

/// The paper's formula (eq. 2): lexmin(lexleset(domain, boundaries)),
/// plus the remainder rule.
inline pb::IntMap blockingMapNaive(const pb::IntTupleSet& domain,
                            const pb::IntTupleSet& boundaries) {
  // Eq. 2: B' = lexleset(I, B); V = lexmin(B').
  pb::IntMap covered = lexminPerDomain(lexLeSet(domain, boundaries));
  // Remainder rule: iterations past the last boundary map to lexmax(I).
  pb::IntTupleSet rest = subtract(domain, covered.domain());
  std::vector<pb::IntMap::Pair> extra;
  for (const pb::Tuple& it : rest.points())
    extra.emplace_back(it, domain.lexmax());
  return covered.unite(
      pb::IntMap(domain.space(), domain.space(), std::move(extra)));
}

/// Source blocking map V_S for pipeline map T (eq. 2, source side).
inline pb::IntMap sourceBlockingMap(const pb::IntTupleSet& srcDomain,
                             const pb::IntMap& pipelineMap) {
  return blockingMap(srcDomain, pipelineMap.domain());
}

/// Target blocking map Y_T for pipeline map T (eq. 2, target side).
inline pb::IntMap targetBlockingMap(const pb::IntTupleSet& tgtDomain,
                             const pb::IntMap& pipelineMap) {
  return blockingMap(tgtDomain, pipelineMap.range());
}

/// Σ_S (eq. 3): lexmin of the union of all blocking maps of one
/// statement. All maps must share the statement's space and be total on
/// its domain.
inline pb::IntMap integrateBlockingMaps(const std::vector<pb::IntMap>& maps) {
  PIPOLY_CHECK_MSG(!maps.empty(), "no blocking maps to integrate");
  if (maps.size() == 1)
    return lexminPerDomain(maps.front());

  const pb::IntMap& first = maps.front();
  const std::size_t inA = first.domainSpace().arity();
  const std::size_t outA = first.rangeSpace().arity();
  const std::size_t w = inA + outA;
  if (w == 0) {
    pb::IntMap acc = first;
    for (const pb::IntMap& m : maps)
      acc = acc.unite(m);
    return acc;
  }

  // Blocking maps are total and single-valued on one shared domain, so
  // every map lists the same domain points at the same row indices and Σ
  // is a per-index lexmin over the k image columns — one O(k·|domain|)
  // sweep instead of the old pairwise unite chain (O(k²·|domain|) with a
  // full re-merge per step).
  bool aligned = true;
  for (const pb::IntMap& m : maps)
    aligned = aligned && m.size() == first.size() &&
              m.domainSpace() == first.domainSpace() &&
              m.rangeSpace() == first.rangeSpace();
  if (aligned) {
    const std::size_t n = first.size();
    std::vector<const pb::RowBuffer*> bufs;
    bufs.reserve(maps.size());
    for (const pb::IntMap& m : maps)
      bufs.push_back(&m.rowData());
    pb::RowBuffer rows;
    rows.reserve(n * w);
    for (std::size_t i = 0; i < n && aligned; ++i) {
      const pb::Value* best = &(*bufs[0])[i * w];
      for (std::size_t k = 1; k < maps.size(); ++k) {
        const pb::Value* p = &(*bufs[k])[i * w];
        if (!pb::rows::equal(p, best, inA)) {
          aligned = false; // different domains after all; fall back
          break;
        }
        if (pb::rows::less(p + inA, best + inA, outA))
          best = p;
      }
      if (aligned)
        pb::rows::append(rows, best, w);
    }
    if (aligned)
      return pb::IntMap::fromRows(first.domainSpace(), first.rangeSpace(),
                                  std::move(rows));
  }

  // General fallback for maps over differing domains: concatenate all row
  // buffers, sort once, then keep the smallest image per domain point.
  pb::RowBuffer all;
  std::size_t total = 0;
  for (const pb::IntMap& m : maps)
    total += m.size();
  all.reserve(total * w);
  for (const pb::IntMap& m : maps)
    all.insert(all.end(), m.rowData().begin(), m.rowData().end());
  return lexminPerDomain(pb::IntMap::fromRows(
      first.domainSpace(), first.rangeSpace(), std::move(all)));
}

/// Σ_S of one statement as an explicit map (iteration -> representative),
/// rebuilt from detection's interval form: block b maps domain rows
/// [blockStarts[b], blockStarts[b + 1]) to its representative.
inline pb::IntMap sigmaMap(const scop::Scop& scop,
                           const pipeline::PipelineInfo& info,
                           std::size_t s) {
  const pb::IntTupleSet& domain = scop.statement(s).domain();
  const pipeline::StatementPipelineInfo& st = info.statements[s];
  PIPOLY_CHECK(st.blockStarts.size() == st.blockReps.size() + 1);
  std::vector<pb::IntMap::Pair> pairs;
  for (std::size_t b = 0; b < st.blockReps.size(); ++b)
    for (std::uint32_t r = st.blockStarts[b]; r < st.blockStarts[b + 1]; ++r)
      pairs.emplace_back(domain.points()[r], st.blockReps.points()[b]);
  return pb::IntMap(domain.space(), domain.space(), std::move(pairs));
}

/// Σ_S^-1: representative -> member iterations.
inline pb::IntMap expansionMap(const scop::Scop& scop,
                               const pipeline::PipelineInfo& info,
                               std::size_t s) {
  return sigmaMap(scop, info, s).inverse();
}

} // namespace pipoly::testing
