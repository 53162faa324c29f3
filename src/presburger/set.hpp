#pragma once

// IntTupleSet: an explicit, lexicographically sorted set of integer tuples
// in a named space. This is the instantiated counterpart of an isl_set:
// once the parameters of a SCoP are fixed, every set the paper manipulates
// is finite and is represented here exactly.
//
// Points are stored as one contiguous row-major RowBuffer (arity values
// per row, rows sorted lexicographically and unique) behind a shared
// immutable pointer: copying a set, or deriving a content-identical set
// (unite with the empty set, an intersection that keeps everything),
// shares the buffer instead of deep-copying. points() returns a
// TupleRange — a lightweight random-access range of TupleViews that keeps
// the buffer alive independently of the set.

#include "presburger/polyhedron.hpp"
#include "presburger/rows.hpp"
#include "presburger/space.hpp"
#include "presburger/tuple.hpp"

#include <string>
#include <utility>
#include <vector>

namespace pipoly::pb {

class IntTupleSet {
public:
  IntTupleSet() = default;
  explicit IntTupleSet(Space space) : space_(std::move(space)) {}
  /// Takes arbitrary points; sorts and deduplicates them.
  IntTupleSet(Space space, std::vector<Tuple> points);

  /// All integer points of `poly`, living in `space`.
  static IntTupleSet fromPolyhedron(Space space, const Polyhedron& poly);

  /// Wraps a flat row-major buffer that is already sorted and unique
  /// (debug-asserted). The cheap construction path for producers that
  /// emit points in order. Requires a non-zero arity unless `rows` is
  /// empty.
  static IntTupleSet fromSortedRows(Space space, RowBuffer rows);

  /// Wraps a flat row-major buffer, sorting and deduplicating when needed
  /// (one linear sortedness check first, so in-order input costs no sort).
  static IntTupleSet fromRows(Space space, RowBuffer rows);

  const Space& space() const { return space_; }
  std::size_t arity() const { return space_.arity(); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// The points as a row-view range (random access, yields TupleView).
  TupleRange points() const { return TupleRange(rows_, count_, arity()); }

  /// The raw sorted row-major storage (count() * arity() values).
  const RowBuffer& rowData() const {
    return rows_ ? *rows_ : emptyRowBuffer();
  }

  bool contains(TupleView t) const;
  bool contains(const Tuple& t) const { return contains(TupleView(t)); }

  IntTupleSet unite(const IntTupleSet& other) const;
  IntTupleSet intersect(const IntTupleSet& other) const;

  /// The lexicographically largest point; the set must be non-empty.
  Tuple lexmax() const;

  /// Per-dimension bounds of the smallest enclosing box; the set must be
  /// non-empty.
  std::vector<DimBounds> rectangularHull() const;

  /// The common stride of dimension `dim`: the gcd of all offsets of
  /// that coordinate from its minimum (e.g. {0, 2, 4, 8} -> 2). Returns
  /// 1 for dense or irregular dims and 0 when the coordinate is constant.
  Value strideOfDim(std::size_t dim) const;

  friend bool operator==(const IntTupleSet& a, const IntTupleSet& b) {
    return a.space_ == b.space_ && a.count_ == b.count_ &&
           a.rowData() == b.rowData();
  }

  std::string toString() const;

private:
  friend class IntMap;

  static const RowBuffer& emptyRowBuffer();
  void requireSameSpace(const IntTupleSet& other) const;
  /// Publishes a sorted-unique buffer as this set's storage.
  void adoptSorted(RowBuffer&& data);

  Space space_;
  RowsPtr rows_;          // row-major, sorted lexicographically, unique
  std::size_t count_ = 0; // number of points (explicit: arity may be 0)
};

std::ostream& operator<<(std::ostream& os, const IntTupleSet& s);

} // namespace pipoly::pb
