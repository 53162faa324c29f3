#include "pipeline/symbolic.hpp"

#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::pipeline {

namespace {

/// The write relation is the identity access A[i0][i1]...: rank equals
/// depth, subscript d is exactly dimension d.
bool isIdentityWrite(const scop::Statement& stmt, const scop::Access& w) {
  if (w.numAuxDims() != 0 || w.subscripts.numOutputs() != stmt.depth())
    return false;
  for (std::size_t d = 0; d < stmt.depth(); ++d) {
    const pb::AffineExpr& e = w.subscripts.output(d);
    if (e.constantTerm() != 0)
      return false;
    for (std::size_t k = 0; k < e.numDims(); ++k)
      if (e.coeff(k) != (k == d ? 1 : 0))
        return false;
  }
  return true;
}

/// Aux coefficients must be non-negative so the aux-rectangle maximum sits
/// at the upper corner.
bool auxMonotone(const scop::Access& r, std::size_t depth) {
  for (const pb::AffineExpr& e : r.subscripts.outputs())
    for (std::size_t k = depth; k < e.numDims(); ++k)
      if (e.coeff(k) < 0)
        return false;
  return true;
}

/// Evaluates a read access at iteration `j`, with aux dims pinned to the
/// upper corner of their rectangle.
pb::Tuple evalAtAuxCorner(const scop::Access& r, const pb::Tuple& j) {
  std::vector<pb::Value> full(j.begin(), j.end());
  for (pb::Value ext : r.auxExtents)
    full.push_back(ext - 1);
  return r.subscripts.evaluate(pb::Tuple(std::move(full)));
}

} // namespace

bool symbolicPipelineApplies(const scop::Scop& scop, std::size_t srcIdx,
                             std::size_t tgtIdx) {
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    bool read = false;
    for (const scop::Access& r : tgt.reads())
      read = read || r.arrayId == arrayId;
    if (!read)
      continue;
    for (const scop::Access& w : src.writes())
      if (w.arrayId == arrayId && !isIdentityWrite(src, w))
        return false;
    for (const scop::Access& r : tgt.reads())
      if (r.arrayId == arrayId && !auxMonotone(r, tgt.depth()))
        return false;
  }
  return true;
}

std::optional<pb::IntMap> trySymbolicPipelineMap(const scop::Scop& scop,
                                                 std::size_t srcIdx,
                                                 std::size_t tgtIdx) {
  if (!symbolicPipelineApplies(scop, srcIdx, tgtIdx))
    return std::nullopt;
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  const pb::IntTupleSet& srcDomain = src.domain();

  // The reads that touch arrays written (identically) by the source.
  std::vector<const scop::Access*> reads;
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx))
    for (const scop::Access& r : tgt.reads())
      if (r.arrayId == arrayId)
        reads.push_back(&r);
  if (reads.empty())
    return pb::IntMap(src.space(), tgt.space());

  // H as a running prefix-lexmax of the pointwise requirement. Identity
  // writes mean the producing iteration *is* the subscript vector.
  std::vector<pb::IntMap::Pair> hPairs; // (target j, last required i)
  bool haveRunning = false;
  pb::Tuple running;
  for (const pb::Tuple& j : tgt.domain().points()) {
    bool havePoint = false;
    pb::Tuple point;
    for (const scop::Access* r : reads) {
      pb::Tuple candidate = evalAtAuxCorner(*r, j);
      if (!srcDomain.contains(candidate)) {
        if (r->numAuxDims() != 0)
          return std::nullopt; // corner argument breaks down; fall back
        continue;              // element never written: no producer
      }
      if (!havePoint || candidate > point) {
        point = std::move(candidate);
        havePoint = true;
      }
    }
    if (!havePoint)
      continue;
    if (!haveRunning || point > running) {
      running = std::move(point);
      haveRunning = true;
    }
    hPairs.emplace_back(j, running);
  }

  // T = lexmax(H^-1): within each run of equal requirement, the last
  // target wins; hPairs is ordered by j with non-decreasing requirement.
  std::vector<pb::IntMap::Pair> tPairs;
  for (std::size_t k = 0; k < hPairs.size(); ++k) {
    if (k + 1 < hPairs.size() && hPairs[k + 1].second == hPairs[k].second)
      continue;
    tPairs.emplace_back(hPairs[k].second, hPairs[k].first);
  }
  return pb::IntMap(src.space(), tgt.space(), std::move(tPairs));
}

const char* toString(ParametricFallback f) {
  switch (f) {
  case ParametricFallback::None:
    return "none";
  case ParametricFallback::NoSharedArray:
    return "no_shared_array";
  case ParametricFallback::MultipleReads:
    return "multiple_reads";
  case ParametricFallback::NonIdentityWrite:
    return "non_identity_write";
  case ParametricFallback::AuxRead:
    return "aux_read";
  case ParametricFallback::NonSeparableRead:
    return "non_separable_read";
  case ParametricFallback::NonMonotoneRead:
    return "non_monotone_read";
  case ParametricFallback::NonRectangularDomain:
    return "non_rectangular_domain";
  case ParametricFallback::kCount:
    break;
  }
  PIPOLY_UNREACHABLE("bad ParametricFallback");
}

namespace {

/// Floor/ceil division with a positive divisor (C++ '/' truncates toward
/// zero; the clipping arithmetic needs the mathematical variants).
pb::Value floorDiv(pb::Value a, pb::Value b) {
  return a / b - (a % b != 0 && a < 0 ? 1 : 0);
}
pb::Value ceilDiv(pb::Value a, pb::Value b) {
  return a / b + (a % b != 0 && a > 0 ? 1 : 0);
}

/// A domain is a full rectangle exactly when it fills its bounding box.
bool isRectangle(const pb::IntTupleSet& domain,
                 const std::vector<pb::DimBounds>& box) {
  pb::Value cells = 1;
  for (const pb::DimBounds& b : box)
    cells *= b.upper - b.lower + 1;
  return static_cast<pb::Value>(domain.size()) == cells;
}

} // namespace

SeparablePairShape classifySeparablePair(const scop::Scop& scop,
                                         std::size_t srcIdx,
                                         std::size_t tgtIdx) {
  SeparablePairShape shape;
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);

  // Exactly one array written by the source and read by the target,
  // through exactly one read access.
  const scop::Access* read = nullptr;
  std::size_t sharedArrays = 0, sharedReads = 0, sharedArrayId = 0;
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    std::size_t readsOfArray = 0;
    for (const scop::Access& r : tgt.reads())
      if (r.arrayId == arrayId) {
        ++readsOfArray;
        read = &r;
      }
    if (readsOfArray > 0) {
      ++sharedArrays;
      sharedArrayId = arrayId;
      sharedReads += readsOfArray;
    }
  }
  if (sharedArrays == 0) {
    shape.fallback = ParametricFallback::NoSharedArray;
    return shape;
  }
  if (sharedArrays > 1 || sharedReads > 1) {
    shape.fallback = ParametricFallback::MultipleReads;
    return shape;
  }
  for (const scop::Access& w : src.writes())
    if (w.arrayId == sharedArrayId && !isIdentityWrite(src, w)) {
      shape.fallback = ParametricFallback::NonIdentityWrite;
      return shape;
    }
  if (read->numAuxDims() != 0) {
    shape.fallback = ParametricFallback::AuxRead;
    return shape;
  }

  // Separable monotone read: subscript_d = c_d * j_d + o_d, c_d >= 1.
  const std::size_t n = src.depth();
  if (n == 0 || tgt.depth() != n || read->subscripts.numOutputs() != n) {
    shape.fallback = ParametricFallback::NonSeparableRead;
    return shape;
  }
  shape.coeffs.reserve(n);
  shape.offsets.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    const pb::AffineExpr& e = read->subscripts.output(d);
    for (std::size_t k = 0; k < e.numDims(); ++k)
      if (k != d && e.coeff(k) != 0) {
        shape.fallback = ParametricFallback::NonSeparableRead;
        return shape;
      }
    if (e.coeff(d) < 1) {
      shape.fallback = ParametricFallback::NonMonotoneRead;
      return shape;
    }
    shape.coeffs.push_back(e.coeff(d));
    shape.offsets.push_back(e.constantTerm());
  }

  // Full-rectangle domains (empty domains are trivially fine: no map).
  if (src.domain().empty() || tgt.domain().empty()) {
    shape.vacuous = true;
    return shape;
  }
  shape.srcBox = src.domain().rectangularHull();
  shape.tgtBox = tgt.domain().rectangularHull();
  if (!isRectangle(src.domain(), shape.srcBox) ||
      !isRectangle(tgt.domain(), shape.tgtBox)) {
    shape.fallback = ParametricFallback::NonRectangularDomain;
    shape.srcBox.clear();
    shape.tgtBox.clear();
    return shape;
  }
  return shape;
}

std::optional<std::vector<pb::DimBounds>>
readersBox(const SeparablePairShape& shape) {
  PIPOLY_CHECK(shape.ok() && !shape.vacuous);
  const std::size_t n = shape.coeffs.size();
  std::vector<pb::DimBounds> box(n);
  for (std::size_t d = 0; d < n; ++d) {
    const pb::Value c = shape.coeffs[d], o = shape.offsets[d];
    box[d].lower = std::max(shape.tgtBox[d].lower,
                            ceilDiv(shape.srcBox[d].lower - o, c));
    box[d].upper = std::min(shape.tgtBox[d].upper,
                            floorDiv(shape.srcBox[d].upper - o, c));
    if (box[d].lower > box[d].upper)
      return std::nullopt; // no read hits the written region
  }
  return box;
}

pb::IntMap separablePipelineMap(const scop::Scop& scop, std::size_t srcIdx,
                                std::size_t tgtIdx,
                                const SeparablePairShape& shape) {
  PIPOLY_CHECK(shape.ok());
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  pb::IntMap empty(src.space(), tgt.space());
  if (shape.vacuous)
    return empty;

  // R = { j : j in Dom(T), c⊙j+o in Dom(S) } — srcDomain.contains of the
  // legacy path, resolved in closed form.
  const std::optional<std::vector<pb::DimBounds>> box = readersBox(shape);
  if (!box)
    return empty; // no dependence
  const std::size_t n = box->size();
  std::vector<pb::Value> j(n);
  std::size_t count = 1;
  for (std::size_t d = 0; d < n; ++d) {
    j[d] = (*box)[d].lower;
    count *= static_cast<std::size_t>((*box)[d].upper - j[d] + 1);
  }

  // T = { c⊙j+o -> j : j in R }. j runs in lexicographic order and
  // j -> c⊙j+o preserves it (c_d >= 1), so the rows come out sorted.
  pb::RowBuffer data;
  data.reserve(count * 2 * n);
  for (;;) {
    for (std::size_t d = 0; d < n; ++d)
      data.push_back(shape.coeffs[d] * j[d] + shape.offsets[d]);
    data.insert(data.end(), j.begin(), j.end());
    std::size_t d = n;
    while (d-- > 0) {
      if (++j[d] <= (*box)[d].upper)
        break;
      j[d] = (*box)[d].lower;
      if (d == 0)
        return pb::IntMap::fromSortedRows(src.space(), tgt.space(),
                                          std::move(data));
    }
  }
}

} // namespace pipoly::pipeline
