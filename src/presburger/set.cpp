#include "presburger/set.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace pipoly::pb {

const RowBuffer& IntTupleSet::emptyRowBuffer() {
  static const RowBuffer empty;
  return empty;
}

void IntTupleSet::adoptSorted(RowBuffer&& data) {
  const std::size_t w = arity();
  PIPOLY_ASSERT(w > 0 || data.empty());
  PIPOLY_ASSERT(rows::isSortedUnique(data, w));
  if (data.empty()) {
    rows_.reset();
    count_ = 0;
    return;
  }
  count_ = data.size() / w;
  rows_ = std::make_shared<const RowBuffer>(std::move(data));
}

IntTupleSet::IntTupleSet(Space space, std::vector<Tuple> points)
    : space_(std::move(space)) {
  const std::size_t w = arity();
  for (const Tuple& t : points)
    PIPOLY_CHECK_MSG(t.size() == w,
                     "tuple arity does not match space " + space_.name());
  if (w == 0) {
    count_ = points.empty() ? 0 : 1;
    return;
  }
  RowBuffer data;
  data.reserve(points.size() * w);
  for (const Tuple& t : points)
    rows::append(data, t.data(), w);
  rows::sortUnique(data, w);
  adoptSorted(std::move(data));
}

IntTupleSet IntTupleSet::fromPolyhedron(Space space, const Polyhedron& poly) {
  PIPOLY_CHECK(space.arity() == poly.numDims());
  // Polyhedron enumeration is already lexicographic and duplicate-free:
  // emit rows straight into flat storage, no build-then-sort.
  IntTupleSet s(std::move(space));
  const std::size_t w = s.arity();
  RowBuffer data;
  std::size_t visits = 0;
  poly.forEachPoint([&](const Tuple& t) {
    ++visits;
    rows::append(data, t.data(), w);
    return true;
  });
  if (w == 0) {
    s.count_ = visits > 0 ? 1 : 0;
    return s;
  }
  s.adoptSorted(std::move(data));
  return s;
}

IntTupleSet IntTupleSet::fromSortedRows(Space space, RowBuffer rowsData) {
  IntTupleSet s(std::move(space));
  PIPOLY_CHECK_MSG(s.arity() > 0 || rowsData.empty(),
                   "fromSortedRows needs a non-zero arity");
  PIPOLY_CHECK(s.arity() == 0 || rowsData.size() % s.arity() == 0);
  s.adoptSorted(std::move(rowsData));
  return s;
}

IntTupleSet IntTupleSet::fromRows(Space space, RowBuffer rowsData) {
  IntTupleSet s(std::move(space));
  PIPOLY_CHECK_MSG(s.arity() > 0 || rowsData.empty(),
                   "fromRows needs a non-zero arity");
  PIPOLY_CHECK(s.arity() == 0 || rowsData.size() % s.arity() == 0);
  rows::sortUnique(rowsData, s.arity());
  s.adoptSorted(std::move(rowsData));
  return s;
}

bool IntTupleSet::contains(TupleView t) const {
  const std::size_t w = arity();
  if (t.size() != w || empty())
    return false;
  if (w == 0)
    return true; // non-empty arity-0 set holds exactly the empty tuple
  const RowBuffer& data = *rows_;
  const std::size_t i =
      rows::lowerBound(data.data(), count_, w, 0, t.data(), w);
  return i < count_ && rows::equal(&data[i * w], t.data(), w);
}

void IntTupleSet::requireSameSpace(const IntTupleSet& other) const {
  PIPOLY_CHECK_MSG(space_ == other.space_,
                   "set operation across different spaces: " + space_.name() +
                       " vs " + other.space_.name());
}

IntTupleSet IntTupleSet::unite(const IntTupleSet& other) const {
  requireSameSpace(other);
  if (empty())
    return other;
  if (other.empty() || rows_ == other.rows_)
    return *this;
  const std::size_t w = arity();
  if (w == 0) {
    IntTupleSet out(space_);
    out.count_ = 1;
    return out;
  }
  const RowBuffer& a = *rows_;
  const RowBuffer& b = *other.rows_;
  IntTupleSet out(space_);
  // Disjoint-range fast path: unions accumulated in sweep order append
  // strictly later point ranges.
  if (rows::less(&a[a.size() - w], b.data(), w)) {
    RowBuffer data;
    data.reserve(a.size() + b.size());
    data.insert(data.end(), a.begin(), a.end());
    data.insert(data.end(), b.begin(), b.end());
    out.adoptSorted(std::move(data));
    return out;
  }
  if (rows::less(&b[b.size() - w], a.data(), w)) {
    RowBuffer data;
    data.reserve(a.size() + b.size());
    data.insert(data.end(), b.begin(), b.end());
    data.insert(data.end(), a.begin(), a.end());
    out.adoptSorted(std::move(data));
    return out;
  }
  out.adoptSorted(rows::unionRows(a, b, w));
  return out;
}

IntTupleSet IntTupleSet::intersect(const IntTupleSet& other) const {
  requireSameSpace(other);
  if (rows_ == other.rows_ && count_ == other.count_)
    return *this;
  if (empty() || other.empty())
    return IntTupleSet(space_);
  const std::size_t w = arity();
  if (w == 0) {
    IntTupleSet out(space_);
    out.count_ = 1;
    return out;
  }
  RowBuffer data = rows::intersectRows(*rows_, *other.rows_, w);
  if (data.size() == rows_->size())
    return *this; // everything survived: share
  IntTupleSet out(space_);
  out.adoptSorted(std::move(data));
  return out;
}

Tuple IntTupleSet::lexmax() const {
  PIPOLY_CHECK_MSG(!empty(), "lexmax of an empty set");
  return Tuple(points().back());
}

std::vector<DimBounds> IntTupleSet::rectangularHull() const {
  PIPOLY_CHECK_MSG(!empty(), "hull of an empty set");
  const std::size_t w = arity();
  std::vector<DimBounds> box(w);
  if (w == 0)
    return box;
  const RowBuffer& data = *rows_;
  for (std::size_t d = 0; d < w; ++d)
    box[d] = {data[d], data[d]};
  for (std::size_t i = 1; i < count_; ++i) {
    const Value* row = &data[i * w];
    for (std::size_t d = 0; d < w; ++d) {
      box[d].lower = std::min(box[d].lower, row[d]);
      box[d].upper = std::max(box[d].upper, row[d]);
    }
  }
  return box;
}

Value IntTupleSet::strideOfDim(std::size_t dim) const {
  PIPOLY_CHECK(dim < arity());
  PIPOLY_CHECK_MSG(!empty(), "stride of an empty set");
  const std::size_t w = arity();
  const RowBuffer& data = *rows_;
  Value lo = data[dim];
  for (std::size_t i = 1; i < count_; ++i)
    lo = std::min(lo, data[i * w + dim]);
  Value g = 0;
  for (std::size_t i = 0; i < count_; ++i)
    g = std::gcd(g, data[i * w + dim] - lo);
  return g;
}

std::string IntTupleSet::toString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntTupleSet& s) {
  os << "{ ";
  bool first = true;
  for (TupleView t : s.points()) {
    if (!first)
      os << "; ";
    os << s.space().name() << t;
    first = false;
  }
  return os << " }";
}

} // namespace pipoly::pb
