#pragma once

// An integer polyhedron: the set of integer points satisfying a conjunction
// of affine constraints over n dimensions. Supports Fourier–Motzkin
// projection and exact integer-point enumeration (domains must be bounded,
// which holds for every instantiated SCoP the library processes).

#include "presburger/constraint.hpp"
#include "presburger/tuple.hpp"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace pipoly::pb {

struct DimBounds {
  Value lower;
  Value upper; // inclusive
};

class Polyhedron {
public:
  explicit Polyhedron(std::size_t numDims) : numDims_(numDims) {}
  Polyhedron(std::size_t numDims, std::vector<Constraint> constraints);

  std::size_t numDims() const { return numDims_; }

  Polyhedron& add(Constraint c);

  bool contains(const Tuple& point) const;

  /// Fourier–Motzkin elimination of the *last* dimension. The result is a
  /// rational projection; for the way the library uses it (computing outer
  /// enumeration bounds that are then filtered exactly) this is sufficient
  /// and sound: the projection is a superset of the true integer shadow.
  Polyhedron projectOutLastDim() const;

  /// Visits all integer points in lexicographic order without materialising
  /// them; `visit` may return false to stop early.
  void forEachPoint(const std::function<bool(const Tuple&)>& visit) const;

  std::string toString(const std::vector<std::string>& dimNames = {}) const;

private:
  /// Bounds of dimension `dim` given fixed values for dimensions 0..dim-1.
  /// Uses only constraints whose support is within 0..dim, so call it on a
  /// system where later dimensions have been projected out.
  /// Returns nullopt when the slice is empty; throws if unbounded.
  std::optional<DimBounds> boundsOfDim(std::size_t dim,
                                       const Tuple& prefix) const;

  /// prefixSystems()[k] contains only constraints over dims 0..k (for k =
  /// numDims-1 that is the original system; lower k are FM projections).
  const std::vector<Polyhedron>& prefixSystems() const;

  std::size_t numDims_;
  std::vector<Constraint> constraints_;
  mutable std::vector<Polyhedron> prefixCache_;
};

} // namespace pipoly::pb
