#pragma once

// Flat row-major point storage shared by IntTupleSet and IntMap, plus the
// algorithms the rewritten set algebra runs on it.
//
// A "row buffer" is one contiguous std::vector<Value> holding n rows of a
// fixed width w (the arity of the space, or the summed arities of a map's
// two spaces), sorted lexicographically and duplicate-free. Sets and maps
// hold their buffer behind a shared_ptr<const ...>: copying a set, or
// deriving one that is content-identical (unite with the empty set, an
// intersection that keeps everything, the per-domain lexmax of a
// single-valued map), shares the buffer instead of deep-copying — buffers
// are immutable once published, so sharing is copy-on-write by
// construction.
//
// TupleRange / PairRange are the iteration façade: lightweight random-
// access ranges yielding TupleView / PairView per row. They retain the
// underlying buffer, so a range outlives the set or map it was taken from
// (safe even when points() is called on a temporary).

#include "presburger/tuple.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

namespace pipoly::pb {

using RowBuffer = std::vector<Value>;
using RowsPtr = std::shared_ptr<const RowBuffer>;

namespace rows {

/// Lexicographic three-way comparison of two width-`w` rows.
inline int compare(const Value* a, const Value* b, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if (a[i] != b[i])
      return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

inline bool less(const Value* a, const Value* b, std::size_t w) {
  return compare(a, b, w) < 0;
}

inline bool equal(const Value* a, const Value* b, std::size_t w) {
  return compare(a, b, w) == 0;
}

inline void append(RowBuffer& out, const Value* row, std::size_t w) {
  out.insert(out.end(), row, row + w);
}

/// True when the buffer holds strictly increasing width-`w` rows.
inline bool isSortedUnique(const RowBuffer& data, std::size_t w) {
  if (w == 0)
    return data.empty();
  const std::size_t n = data.size() / w;
  for (std::size_t i = 1; i < n; ++i)
    if (compare(&data[(i - 1) * w], &data[i * w], w) >= 0)
      return false;
  return true;
}

namespace detail {

/// sortUnique's kernel for rows of a fixed width W: the rows are copied
/// into contiguous W-value records, sorted and deduplicated as values —
/// no index array, no indirect comparator — and copied back.
template <std::size_t W> void sortUniqueFixed(RowBuffer& data) {
  using Row = std::array<Value, W>;
  std::vector<Row> recs(data.size() / W);
  std::memcpy(recs.data(), data.data(), data.size() * sizeof(Value));
  std::sort(recs.begin(), recs.end());
  recs.erase(std::unique(recs.begin(), recs.end()), recs.end());
  data.resize(recs.size() * W);
  std::memcpy(data.data(), recs.data(), data.size() * sizeof(Value));
}

/// sortUnique's kernel for wider rows: an index sort, then one copy.
inline void sortUniqueIndexed(RowBuffer& data, std::size_t w) {
  const std::size_t n = data.size() / w;
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](std::uint32_t x, std::uint32_t y) {
    return compare(&data[x * w], &data[y * w], w) < 0;
  });
  RowBuffer out;
  out.reserve(data.size());
  const Value* prev = nullptr;
  for (std::uint32_t i : idx) {
    const Value* r = &data[i * w];
    if (prev != nullptr && equal(prev, r, w))
      continue;
    append(out, r, w);
    prev = r;
  }
  data = std::move(out);
}

} // namespace detail

/// Sorts the rows lexicographically and drops duplicates. Already-sorted
/// input (the common case: most producers emit in order) is detected in
/// one linear pass and returned untouched. Rows up to 8 values wide sort
/// as fixed-width records.
inline void sortUnique(RowBuffer& data, std::size_t w) {
  if (w == 0) {
    data.clear();
    return;
  }
  if (isSortedUnique(data, w))
    return;
  switch (w) {
  case 1:
    return detail::sortUniqueFixed<1>(data);
  case 2:
    return detail::sortUniqueFixed<2>(data);
  case 3:
    return detail::sortUniqueFixed<3>(data);
  case 4:
    return detail::sortUniqueFixed<4>(data);
  case 5:
    return detail::sortUniqueFixed<5>(data);
  case 6:
    return detail::sortUniqueFixed<6>(data);
  case 7:
    return detail::sortUniqueFixed<7>(data);
  case 8:
    return detail::sortUniqueFixed<8>(data);
  default:
    return detail::sortUniqueIndexed(data, w);
  }
}

/// First index in [from, n) whose leading `keyW` values compare >= `key`
/// (rows have width `w`; keyW <= w). Plain binary search.
inline std::size_t lowerBound(const Value* base, std::size_t n, std::size_t w,
                              std::size_t from, const Value* key,
                              std::size_t keyW) {
  std::size_t lo = from, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (compare(base + mid * w, key, keyW) < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Galloping (exponential) variant of lowerBound: doubles the step from
/// `from` until the key is bracketed, then binary-searches the bracket.
/// O(log distance) instead of O(log n) — the win the merge loops below
/// rely on when one side is much denser than the other.
inline std::size_t gallopLowerBound(const Value* base, std::size_t n,
                                    std::size_t w, std::size_t from,
                                    const Value* key, std::size_t keyW) {
  std::size_t step = 1, probe = from;
  while (probe < n && compare(base + probe * w, key, keyW) < 0) {
    from = probe + 1;
    probe += step;
    step *= 2;
  }
  return lowerBound(base, std::min(probe, n), w, from, key, keyW);
}

/// a ∪ b over sorted-unique width-`w` buffers (linear merge).
inline RowBuffer unionRows(const RowBuffer& a, const RowBuffer& b,
                           std::size_t w) {
  RowBuffer out;
  out.reserve(a.size() + b.size());
  const std::size_t na = a.size() / w, nb = b.size() / w;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const int c = compare(&a[i * w], &b[j * w], w);
    if (c < 0)
      append(out, &a[i++ * w], w);
    else if (c > 0)
      append(out, &b[j++ * w], w);
    else {
      append(out, &a[i * w], w);
      ++i;
      ++j;
    }
  }
  if (i < na)
    out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i * w),
               a.end());
  if (j < nb)
    out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j * w),
               b.end());
  return out;
}

/// Size ratio beyond which the merge loops switch from stepping to
/// galloping through the larger side.
inline constexpr std::size_t kGallopRatio = 8;

/// a ∩ b (linear merge; gallops through the larger side on skew).
inline RowBuffer intersectRows(const RowBuffer& a, const RowBuffer& b,
                               std::size_t w) {
  const RowBuffer& small = a.size() <= b.size() ? a : b;
  const RowBuffer& large = a.size() <= b.size() ? b : a;
  const std::size_t ns = small.size() / w, nl = large.size() / w;
  RowBuffer out;
  out.reserve(small.size());
  const bool gallop = nl / std::max<std::size_t>(ns, 1) >= kGallopRatio;
  std::size_t i = 0, j = 0;
  while (i < ns && j < nl) {
    if (gallop) {
      j = gallopLowerBound(large.data(), nl, w, j, &small[i * w], w);
      if (j == nl)
        break;
    }
    const int c = compare(&small[i * w], &large[j * w], w);
    if (c == 0) {
      append(out, &small[i * w], w);
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

} // namespace rows

/// Random-access range over the points of a flat row buffer, yielding a
/// TupleView per row. Holds a reference on the buffer, so the range (and
/// any iterator derived from it) stays valid after the originating set or
/// map is gone.
class TupleRange {
public:
  class iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = TupleView;
    using difference_type = std::ptrdiff_t;
    using reference = TupleView;
    using pointer = void;

    iterator() = default;
    iterator(const Value* base, std::size_t arity, std::size_t idx)
        : base_(base), arity_(arity), idx_(idx) {}

    TupleView operator*() const {
      return TupleView(base_ + idx_ * arity_, arity_);
    }
    TupleView operator[](difference_type k) const { return *(*this + k); }

    iterator& operator++() {
      ++idx_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++idx_;
      return t;
    }
    iterator& operator--() {
      --idx_;
      return *this;
    }
    iterator operator--(int) {
      iterator t = *this;
      --idx_;
      return t;
    }
    iterator& operator+=(difference_type k) {
      idx_ = static_cast<std::size_t>(static_cast<difference_type>(idx_) + k);
      return *this;
    }
    iterator& operator-=(difference_type k) { return *this += -k; }
    friend iterator operator+(iterator it, difference_type k) {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.idx_) -
             static_cast<difference_type>(b.idx_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.idx_ <=> b.idx_;
    }

  private:
    const Value* base_ = nullptr;
    std::size_t arity_ = 0;
    std::size_t idx_ = 0;
  };

  TupleRange() = default;
  TupleRange(RowsPtr keepAlive, std::size_t count, std::size_t arity)
      : keepAlive_(std::move(keepAlive)), count_(count), arity_(arity) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  iterator begin() const { return iterator(base(), arity_, 0); }
  iterator end() const { return iterator(base(), arity_, count_); }

  TupleView operator[](std::size_t i) const {
    PIPOLY_ASSERT(i < count_);
    return TupleView(base() + i * arity_, arity_);
  }
  TupleView front() const { return (*this)[0]; }
  TupleView back() const { return (*this)[count_ - 1]; }

  friend bool operator==(const TupleRange& a, const TupleRange& b) {
    if (a.count_ != b.count_ || a.arity_ != b.arity_)
      return false;
    return std::equal(a.base(), a.base() + a.count_ * a.arity_, b.base());
  }
  friend bool operator==(const TupleRange& a, const std::vector<Tuple>& b) {
    if (a.count_ != b.size())
      return false;
    for (std::size_t i = 0; i < a.count_; ++i)
      if (!(a[i] == b[i]))
        return false;
    return true;
  }

private:
  const Value* base() const { return keepAlive_ ? keepAlive_->data() : nullptr; }

  RowsPtr keepAlive_;
  std::size_t count_ = 0;
  std::size_t arity_ = 0;
};

/// Random-access range over the pairs of a flat map buffer (row width =
/// domain arity + range arity), yielding a PairView per row. Retains the
/// buffer like TupleRange.
class PairRange {
public:
  class iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = PairView;
    using difference_type = std::ptrdiff_t;
    using reference = PairView;
    using pointer = void;

    iterator() = default;
    iterator(const Value* base, std::size_t inArity, std::size_t outArity,
             std::size_t idx)
        : base_(base), inArity_(inArity), outArity_(outArity), idx_(idx) {}

    PairView operator*() const {
      const Value* row = base_ + idx_ * (inArity_ + outArity_);
      return PairView{TupleView(row, inArity_),
                      TupleView(row + inArity_, outArity_)};
    }
    PairView operator[](difference_type k) const { return *(*this + k); }

    iterator& operator++() {
      ++idx_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++idx_;
      return t;
    }
    iterator& operator--() {
      --idx_;
      return *this;
    }
    iterator operator--(int) {
      iterator t = *this;
      --idx_;
      return t;
    }
    iterator& operator+=(difference_type k) {
      idx_ = static_cast<std::size_t>(static_cast<difference_type>(idx_) + k);
      return *this;
    }
    iterator& operator-=(difference_type k) { return *this += -k; }
    friend iterator operator+(iterator it, difference_type k) {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.idx_) -
             static_cast<difference_type>(b.idx_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.idx_ <=> b.idx_;
    }

  private:
    const Value* base_ = nullptr;
    std::size_t inArity_ = 0;
    std::size_t outArity_ = 0;
    std::size_t idx_ = 0;
  };

  PairRange() = default;
  PairRange(RowsPtr keepAlive, std::size_t count, std::size_t inArity,
            std::size_t outArity)
      : keepAlive_(std::move(keepAlive)), count_(count), inArity_(inArity),
        outArity_(outArity) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  iterator begin() const { return iterator(base(), inArity_, outArity_, 0); }
  iterator end() const {
    return iterator(base(), inArity_, outArity_, count_);
  }

  PairView operator[](std::size_t i) const {
    PIPOLY_ASSERT(i < count_);
    const Value* row = base() + i * (inArity_ + outArity_);
    return PairView{TupleView(row, inArity_),
                    TupleView(row + inArity_, outArity_)};
  }
  PairView front() const { return (*this)[0]; }
  PairView back() const { return (*this)[count_ - 1]; }

  friend bool operator==(const PairRange& a, const PairRange& b) {
    if (a.count_ != b.count_ || a.inArity_ != b.inArity_ ||
        a.outArity_ != b.outArity_)
      return false;
    const std::size_t w = a.inArity_ + a.outArity_;
    return std::equal(a.base(), a.base() + a.count_ * w, b.base());
  }
  friend bool operator==(const PairRange& a,
                         const std::vector<std::pair<Tuple, Tuple>>& b) {
    if (a.count_ != b.size())
      return false;
    for (std::size_t i = 0; i < a.count_; ++i)
      if (!(a[i] == b[i]))
        return false;
    return true;
  }

private:
  const Value* base() const { return keepAlive_ ? keepAlive_->data() : nullptr; }

  RowsPtr keepAlive_;
  std::size_t count_ = 0;
  std::size_t inArity_ = 0;
  std::size_t outArity_ = 0;
};

} // namespace pipoly::pb
