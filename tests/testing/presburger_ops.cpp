#include "presburger_ops.hpp"

#include "pipeline/pipeline_map.hpp"
#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::pb {

std::vector<Tuple> enumerate(const Polyhedron& poly) {
  std::vector<Tuple> out;
  poly.forEachPoint([&](const Tuple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

IntTupleSet rectangle(Space space, const std::vector<Value>& extents) {
  const std::size_t n = extents.size();
  PIPOLY_CHECK(space.arity() == n);
  Polyhedron box(n);
  for (std::size_t d = 0; d < n; ++d) {
    box.add(Constraint::ge(AffineExpr::dim(n, d)));
    box.add(Constraint::lt(AffineExpr::dim(n, d),
                           AffineExpr::constant(n, extents[d])));
  }
  return IntTupleSet::fromPolyhedron(std::move(space), box);
}

IntTupleSet subtract(const IntTupleSet& a, const IntTupleSet& b) {
  PIPOLY_CHECK_MSG(a.space() == b.space(),
                   "difference of sets across different spaces");
  return filter(a, [&](const Tuple& t) { return !b.contains(t); });
}

IntMap subtract(const IntMap& a, const IntMap& b) {
  PIPOLY_CHECK_MSG(a.domainSpace() == b.domainSpace() &&
                       a.rangeSpace() == b.rangeSpace(),
                   "difference of maps across different spaces");
  std::vector<IntMap::Pair> kept;
  for (PairView p : a.pairs())
    if (!b.contains(p.first, p.second))
      kept.push_back(p);
  return IntMap(a.domainSpace(), a.rangeSpace(), std::move(kept));
}

bool isSubsetOf(const IntTupleSet& a, const IntTupleSet& b) {
  return subtract(a, b).empty();
}

bool isSubsetOf(const IntMap& a, const IntMap& b) {
  return subtract(a, b).empty();
}

Tuple lexmin(const IntTupleSet& set) {
  PIPOLY_CHECK_MSG(!set.empty(), "lexmin of an empty set");
  return Tuple(set.points().front());
}

IntMap lexLeSet(const IntTupleSet& from, const IntTupleSet& bounds) {
  PIPOLY_CHECK(from.space() == bounds.space());
  const TupleRange bs = bounds.points();
  std::vector<IntMap::Pair> pairs;
  for (TupleView x : from.points())
    for (auto it = std::lower_bound(bs.begin(), bs.end(), x); it != bs.end();
         ++it)
      pairs.emplace_back(x, *it);
  return IntMap(from.space(), from.space(), std::move(pairs));
}

IntMap lexGeContains(const IntTupleSet& set) {
  const TupleRange pts = set.points();
  std::vector<IntMap::Pair> pairs;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = 0; j <= i; ++j)
      pairs.emplace_back(pts[i], pts[j]);
  return IntMap(set.space(), set.space(), std::move(pairs));
}

std::vector<Tuple> imagesOf(const IntMap& m, const Tuple& in) {
  std::vector<Tuple> out;
  if (in.size() != m.domainSpace().arity())
    return out;
  const PairRange ps = m.pairs();
  auto it = std::lower_bound(
      ps.begin(), ps.end(), in,
      [](PairView p, const Tuple& key) { return p.first < key; });
  for (; it != ps.end() && (*it).first == in; ++it)
    out.emplace_back((*it).second);
  return out;
}

std::optional<Tuple> singleImageOf(const IntMap& m, const Tuple& in) {
  std::vector<Tuple> images = imagesOf(m, in);
  if (images.empty())
    return std::nullopt;
  PIPOLY_CHECK_MSG(images.size() == 1,
                   "map is not single-valued at " + in.toString() +
                       " in space " + m.domainSpace().name());
  return images.front();
}

IntMap lexminPerDomain(const IntMap& m) {
  // Pairs are sorted by (in, out): the first pair of each input group
  // carries the smallest image.
  std::vector<IntMap::Pair> firsts;
  for (PairView p : m.pairs())
    if (firsts.empty() || !(p.first == firsts.back().first))
      firsts.push_back(p);
  return IntMap(m.domainSpace(), m.rangeSpace(), std::move(firsts));
}

bool isSingleValued(const IntMap& m) {
  const PairRange ps = m.pairs();
  for (std::size_t i = 1; i < ps.size(); ++i)
    if (ps[i - 1].first == ps[i].first)
      return false;
  return true;
}

} // namespace pipoly::pb

namespace pipoly::pipeline {

pb::IntMap pipelineMapNaive(const scop::AccessRelations& rel,
                            std::size_t srcIdx, std::size_t tgtIdx,
                            bool allowNonInjective) {
  pb::IntMap p = producerRelation(rel, srcIdx, tgtIdx, allowNonInjective);
  if (p.empty())
    return pb::IntMap(rel.scop().statement(srcIdx).space(),
                      rel.scop().statement(tgtIdx).space());
  // D' maps each member of Dom(P) to all members lexle it.
  pb::IntMap dPrime = pb::lexGeContains(p.domain());
  pb::IntMap h = p.compose(dPrime).lexmaxPerDomain();
  return h.inverse().lexmaxPerDomain();
}

} // namespace pipoly::pipeline
