#pragma once

// IntMap: an explicit binary relation between two tuple spaces, mirroring
// isl_map for instantiated (finite) problems. It holds the operations
// set-up calls: inverse, composition, domain/range, per-domain lexmax
// (the paper's lexmax(M)), union, intersection, identity maps and the
// injectivity check. The rest of Algorithm 1's operation set (lexleset,
// lexmin, images, subtraction, ...) serves only tests and oracles and
// lives in the test library beside them.
//
// Pairs are stored as one contiguous row-major RowBuffer — each row is
// the domain tuple immediately followed by the range tuple (width =
// domain arity + range arity), rows sorted lexicographically (which is
// exactly the (in, out) pair order) and unique — behind a shared
// immutable pointer. Copies and content-identical derivations (the
// per-domain lexmax of a single-valued map, an intersection that keeps
// every pair) share the buffer. pairs() returns a PairRange of PairViews
// that keeps the buffer alive independently of the map.

#include "presburger/rows.hpp"
#include "presburger/set.hpp"
#include "presburger/space.hpp"
#include "presburger/tuple.hpp"

#include <string>
#include <utility>
#include <vector>

namespace pipoly::pb {

class IntMap {
public:
  using Pair = std::pair<Tuple, Tuple>;

  IntMap() = default;
  IntMap(Space in, Space out) : in_(std::move(in)), out_(std::move(out)) {}
  /// Takes arbitrary pairs; sorts and deduplicates them.
  IntMap(Space in, Space out, std::vector<Pair> pairs);

  /// { x -> x : x in set }
  static IntMap identity(const IntTupleSet& set);

  /// Wraps a flat row-major pair buffer (width = in.arity() + out.arity())
  /// that is already sorted and unique (debug-asserted). The cheap
  /// construction path for producers that emit pairs in order. Requires a
  /// non-zero total width unless `rows` is empty.
  static IntMap fromSortedRows(Space in, Space out, RowBuffer rows);

  /// Wraps a flat row-major pair buffer, sorting and deduplicating when
  /// needed (one linear sortedness check first).
  static IntMap fromRows(Space in, Space out, RowBuffer rows);

  const Space& domainSpace() const { return in_; }
  const Space& rangeSpace() const { return out_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// The pairs as a row-view range (random access, yields PairView).
  PairRange pairs() const {
    return PairRange(rows_, count_, in_.arity(), out_.arity());
  }

  /// The raw sorted row-major storage (size() * width() values, each row
  /// the domain tuple followed by the range tuple).
  const RowBuffer& rowData() const {
    return rows_ ? *rows_ : IntTupleSet::emptyRowBuffer();
  }

  bool contains(const Tuple& in, const Tuple& out) const;

  IntMap inverse() const;
  IntTupleSet domain() const;
  IntTupleSet range() const;

  /// Composition this(inner): { a -> c : exists b, (a,b) in inner and
  /// (b,c) in this }. Matches the paper's M1(M2) notation.
  IntMap compose(const IntMap& inner) const;

  /// Per-domain-element lexicographic max of the images — the paper's
  /// lexmax(M). The result is single-valued.
  IntMap lexmaxPerDomain() const;

  IntMap unite(const IntMap& other) const;
  IntMap intersect(const IntMap& other) const;

  bool isInjective() const; // no two inputs share an output

  friend bool operator==(const IntMap& a, const IntMap& b) {
    return a.in_ == b.in_ && a.out_ == b.out_ && a.count_ == b.count_ &&
           a.rowData() == b.rowData();
  }

  std::string toString() const;

private:
  std::size_t inArity() const { return in_.arity(); }
  std::size_t outArity() const { return out_.arity(); }
  std::size_t width() const { return in_.arity() + out_.arity(); }
  /// Publishes a sorted-unique buffer as this map's storage.
  void adoptSorted(RowBuffer&& data);
  bool isSingleValued() const; // no input has two outputs
  void requireSameSpaces(const IntMap& other, const char* what) const;

  Space in_, out_;
  RowsPtr rows_;          // row-major (in ++ out), sorted by (in, out)
  std::size_t count_ = 0; // number of pairs (explicit: width may be 0)
};

std::ostream& operator<<(std::ostream& os, const IntMap& m);

} // namespace pipoly::pb
