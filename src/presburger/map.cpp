#include "presburger/map.hpp"

#include "support/assert.hpp"

#include <sstream>

namespace pipoly::pb {

void IntMap::adoptSorted(RowBuffer&& data) {
  const std::size_t w = width();
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

void IntMap::requireSameSpaces(const IntMap& other, const char* what) const {
  PIPOLY_CHECK_MSG(in_ == other.in_ && out_ == other.out_, what);
}

IntMap::IntMap(Space in, Space out, std::vector<Pair> pairs)
    : in_(std::move(in)), out_(std::move(out)) {
  const std::size_t inA = inArity(), outA = outArity();
  for (const Pair& p : pairs) {
    PIPOLY_CHECK_MSG(p.first.size() == inA,
                     "map pair domain arity mismatch in " + in_.name());
    PIPOLY_CHECK_MSG(p.second.size() == outA,
                     "map pair range arity mismatch in " + out_.name());
  }
  if (inA + outA == 0) {
    count_ = pairs.empty() ? 0 : 1;
    return;
  }
  RowBuffer data;
  data.reserve(pairs.size() * (inA + outA));
  for (const Pair& p : pairs) {
    rows::append(data, p.first.data(), inA);
    rows::append(data, p.second.data(), outA);
  }
  // Pair order (first, then second) is exactly row order on (in ++ out).
  rows::sortUnique(data, inA + outA);
  adoptSorted(std::move(data));
}

IntMap IntMap::identity(const IntTupleSet& set) {
  IntMap m(set.space(), set.space());
  const std::size_t a = set.arity();
  if (a == 0) {
    m.count_ = set.size();
    return m;
  }
  const RowBuffer& src = set.rowData();
  RowBuffer data;
  data.reserve(src.size() * 2);
  for (std::size_t i = 0; i < set.size(); ++i) {
    rows::append(data, &src[i * a], a);
    rows::append(data, &src[i * a], a);
  }
  m.adoptSorted(std::move(data)); // set order is already (x, x) order
  return m;
}

IntMap IntMap::fromSortedRows(Space in, Space out, RowBuffer rowsData) {
  IntMap m(std::move(in), std::move(out));
  PIPOLY_CHECK_MSG(m.width() > 0 || rowsData.empty(),
                   "fromSortedRows needs a non-zero width");
  PIPOLY_CHECK(m.width() == 0 || rowsData.size() % m.width() == 0);
  m.adoptSorted(std::move(rowsData));
  return m;
}

IntMap IntMap::fromRows(Space in, Space out, RowBuffer rowsData) {
  IntMap m(std::move(in), std::move(out));
  PIPOLY_CHECK_MSG(m.width() > 0 || rowsData.empty(),
                   "fromRows needs a non-zero width");
  PIPOLY_CHECK(m.width() == 0 || rowsData.size() % m.width() == 0);
  rows::sortUnique(rowsData, m.width());
  m.adoptSorted(std::move(rowsData));
  return m;
}

bool IntMap::contains(const Tuple& in, const Tuple& out) const {
  if (in.size() != inArity() || out.size() != outArity() || empty())
    return false;
  const std::size_t w = width();
  if (w == 0)
    return true; // non-empty arity-0 relation holds exactly () -> ()
  RowBuffer key;
  key.reserve(w);
  rows::append(key, in.data(), in.size());
  rows::append(key, out.data(), out.size());
  const RowBuffer& data = *rows_;
  const std::size_t i =
      rows::lowerBound(data.data(), count_, w, 0, key.data(), w);
  return i < count_ && rows::equal(&data[i * w], key.data(), w);
}

IntMap IntMap::inverse() const {
  IntMap m(out_, in_);
  const std::size_t inA = inArity(), outA = outArity();
  if (inA + outA == 0) {
    m.count_ = count_;
    return m;
  }
  if (empty())
    return m;
  const RowBuffer& src = *rows_;
  RowBuffer data;
  data.reserve(src.size());
  for (std::size_t i = 0; i < count_; ++i) {
    const Value* row = &src[i * (inA + outA)];
    rows::append(data, row + inA, outA);
    rows::append(data, row, inA);
  }
  rows::sortUnique(data, inA + outA);
  m.adoptSorted(std::move(data));
  return m;
}

IntTupleSet IntMap::domain() const {
  const std::size_t inA = inArity(), w = width();
  if (inA == 0)
    return IntTupleSet(in_, std::vector<Tuple>(count_ > 0 ? 1 : 0));
  // Rows are sorted by (in, out): distinct in-prefixes appear as sorted
  // contiguous groups, so one dedup pass emits the domain in order.
  RowBuffer data;
  data.reserve(count_ * inA);
  const Value* prev = nullptr;
  for (std::size_t i = 0; i < count_; ++i) {
    const Value* row = &(*rows_)[i * w];
    if (prev == nullptr || !rows::equal(prev, row, inA)) {
      rows::append(data, row, inA);
      prev = row;
    }
  }
  return IntTupleSet::fromSortedRows(in_, std::move(data));
}

IntTupleSet IntMap::range() const {
  const std::size_t inA = inArity(), outA = outArity(), w = width();
  if (outA == 0)
    return IntTupleSet(out_, std::vector<Tuple>(count_ > 0 ? 1 : 0));
  RowBuffer data;
  data.reserve(count_ * outA);
  for (std::size_t i = 0; i < count_; ++i)
    rows::append(data, &(*rows_)[i * w + inA], outA);
  return IntTupleSet::fromRows(out_, std::move(data));
}

IntMap IntMap::compose(const IntMap& inner) const {
  PIPOLY_CHECK_MSG(inner.out_ == in_,
                   "composition space mismatch: inner range " +
                       inner.out_.name() + " vs outer domain " + in_.name());
  const std::size_t aA = inner.inArity(), bA = inner.outArity();
  const std::size_t cA = outArity(), wIn = aA + bA, wOut = bA + cA;
  if (aA + cA == 0) {
    // Arity-0 result: non-empty iff some inner image is an outer input.
    IntMap m(inner.in_, out_);
    for (std::size_t i = 0; i < inner.count_ && m.count_ == 0; ++i) {
      const Value* b = wIn == 0 ? nullptr : &(*inner.rows_)[i * wIn + aA];
      if (empty())
        break;
      if (bA == 0) {
        m.count_ = 1;
        continue;
      }
      const std::size_t lo =
          rows::lowerBound(rows_->data(), count_, wOut, 0, b, bA);
      if (lo < count_ && rows::equal(&(*rows_)[lo * wOut], b, bA))
        m.count_ = 1;
    }
    return m;
  }
  if (wIn == 0) {
    // inner is (at most) the single () -> () pair and bA == 0 matches
    // every outer row: the result is this map's rows re-labelled.
    IntMap m(inner.in_, out_);
    if (inner.count_ > 0) {
      m.rows_ = rows_;
      m.count_ = count_;
    }
    return m;
  }
  // Look up each inner image among this map's inputs. Blocking and access
  // maps are usually monotone in their images, so consecutive lookups land
  // at or after the previous hit: keep a hint index and only search the
  // tail past it, falling back to the head range when the key order
  // regresses. Monotone inners thus compose in O(m + n).
  RowBuffer data;
  data.reserve(inner.count_ * (aA + cA));
  const Value* outerBase = empty() ? nullptr : rows_->data();
  std::size_t hint = 0;
  for (std::size_t i = 0; i < inner.count_; ++i) {
    const Value* abRow = &(*inner.rows_)[i * wIn];
    const Value* b = abRow + aA;
    std::size_t lo;
    if (hint >= count_ || rows::compare(outerBase + hint * wOut, b, bA) >= 0)
      lo = rows::lowerBound(outerBase, hint, wOut, 0, b, bA);
    else
      lo = rows::lowerBound(outerBase, count_, wOut, hint, b, bA);
    hint = lo;
    for (std::size_t j = lo;
         j < count_ && rows::equal(outerBase + j * wOut, b, bA); ++j) {
      rows::append(data, abRow, aA);
      rows::append(data, outerBase + j * wOut + bA, cA);
    }
  }
  // Single-valued monotone composition emits in order (the common case for
  // blocking maps); fromRows detects that in one pass and skips the sort.
  return fromRows(inner.in_, out_, std::move(data));
}

IntMap IntMap::lexmaxPerDomain() const {
  // A single-valued map is its own per-domain extremum; share the buffer.
  if (isSingleValued())
    return *this;
  const std::size_t inA = inArity(), w = width();
  // Rows are sorted by (in, out): the last row of each input group carries
  // the lexicographically largest output.
  RowBuffer data;
  data.reserve(count_ * w);
  for (std::size_t i = 0; i < count_; ++i) {
    const Value* row = &(*rows_)[i * w];
    if (i + 1 < count_ && rows::equal(row, &(*rows_)[(i + 1) * w], inA))
      continue;
    rows::append(data, row, w);
  }
  IntMap m(in_, out_);
  m.adoptSorted(std::move(data));
  return m;
}

IntMap IntMap::unite(const IntMap& other) const {
  requireSameSpaces(other, "union of maps across different spaces");
  if (empty())
    return other;
  if (other.empty() || rows_ == other.rows_)
    return *this;
  const std::size_t w = width();
  if (w == 0) {
    IntMap m(in_, out_);
    m.count_ = 1;
    return m;
  }
  const RowBuffer& a = *rows_;
  const RowBuffer& b = *other.rows_;
  IntMap m(in_, out_);
  // Disjoint-range fast path: accumulating unions (producer relations,
  // dependence sweeps) typically append strictly later pair ranges.
  if (rows::less(&a[a.size() - w], b.data(), w)) {
    RowBuffer data;
    data.reserve(a.size() + b.size());
    data.insert(data.end(), a.begin(), a.end());
    data.insert(data.end(), b.begin(), b.end());
    m.adoptSorted(std::move(data));
    return m;
  }
  if (rows::less(&b[b.size() - w], a.data(), w)) {
    RowBuffer data;
    data.reserve(a.size() + b.size());
    data.insert(data.end(), b.begin(), b.end());
    data.insert(data.end(), a.begin(), a.end());
    m.adoptSorted(std::move(data));
    return m;
  }
  m.adoptSorted(rows::unionRows(a, b, w));
  return m;
}

IntMap IntMap::intersect(const IntMap& other) const {
  requireSameSpaces(other, "intersection of maps across different spaces");
  if (rows_ == other.rows_ && count_ == other.count_)
    return *this;
  if (empty() || other.empty())
    return IntMap(in_, out_);
  const std::size_t w = width();
  if (w == 0) {
    IntMap m(in_, out_);
    m.count_ = 1;
    return m;
  }
  RowBuffer data = rows::intersectRows(*rows_, *other.rows_, w);
  if (data.size() == rows_->size())
    return *this; // everything survived: share
  IntMap m(in_, out_);
  m.adoptSorted(std::move(data));
  return m;
}

bool IntMap::isInjective() const {
  const std::size_t inA = inArity(), outA = outArity(), w = width();
  (void)inA;
  if (count_ < 2)
    return true;
  if (outA == 0)
    return false; // two or more inputs all map to the empty tuple
  RowBuffer outs;
  outs.reserve(count_ * outA);
  for (std::size_t i = 0; i < count_; ++i)
    rows::append(outs, &(*rows_)[i * w + inArity()], outA);
  // Pairs are unique, so a duplicate output can only come from two
  // distinct inputs sharing it.
  rows::sortUnique(outs, outA);
  return outs.size() == count_ * outA;
}

bool IntMap::isSingleValued() const {
  const std::size_t inA = inArity(), w = width();
  if (count_ < 2)
    return true;
  if (inA == 0)
    return false; // two or more outputs for the single empty input
  for (std::size_t i = 1; i < count_; ++i)
    if (rows::equal(&(*rows_)[(i - 1) * w], &(*rows_)[i * w], inA))
      return false;
  return true;
}

std::string IntMap::toString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntMap& m) {
  os << "{ ";
  bool first = true;
  for (const auto& [in, out] : m.pairs()) {
    if (!first)
      os << "; ";
    os << m.domainSpace().name() << in << " -> " << m.rangeSpace().name()
       << out;
    first = false;
  }
  return os << " }";
}

} // namespace pipoly::pb
