#pragma once

// Affine expressions and multi-dimensional affine maps over a fixed number
// of input dimensions. These form the symbolic front end of the library:
// iteration domains and access relations are *written* as affine objects
// and *evaluated* into explicit sets once the parameters are fixed.

#include "presburger/tuple.hpp"
#include "support/assert.hpp"

#include <numeric>
#include <string>
#include <vector>

namespace pipoly::pb {

/// c0*x0 + ... + c{n-1}*x{n-1} + constant, over n input dimensions.
class AffineExpr {
public:
  AffineExpr() = default;
  explicit AffineExpr(std::size_t numDims, Value constant = 0)
      : coeffs_(numDims, 0), constant_(constant) {}
  AffineExpr(std::vector<Value> coeffs, Value constant)
      : coeffs_(std::move(coeffs)), constant_(constant) {}

  /// The expression `x_idx` over numDims dimensions.
  static AffineExpr dim(std::size_t numDims, std::size_t idx) {
    PIPOLY_CHECK(idx < numDims);
    AffineExpr e(numDims);
    e.coeffs_[idx] = 1;
    return e;
  }

  /// The constant expression `c` over numDims dimensions.
  static AffineExpr constant(std::size_t numDims, Value c) {
    return AffineExpr(numDims, c);
  }

  std::size_t numDims() const { return coeffs_.size(); }
  Value coeff(std::size_t i) const { return coeffs_[i]; }
  Value& coeff(std::size_t i) { return coeffs_[i]; }
  Value constantTerm() const { return constant_; }
  Value& constantTerm() { return constant_; }

  bool isConstant() const {
    for (Value c : coeffs_)
      if (c != 0)
        return false;
    return true;
  }

  Value evaluate(const Tuple& point) const {
    PIPOLY_ASSERT(point.size() == coeffs_.size());
    return evaluate(point.data());
  }
  /// The value at the point held in numDims() consecutive values.
  Value evaluate(const Value* point) const {
    Value acc = constant_;
    for (std::size_t i = 0; i < coeffs_.size(); ++i)
      acc += coeffs_[i] * point[i];
    return acc;
  }

  /// Returns a copy of this expression extended to `numDims` dimensions
  /// (the new trailing dimensions get coefficient zero).
  AffineExpr extendedTo(std::size_t numDims) const {
    PIPOLY_CHECK(numDims >= coeffs_.size());
    AffineExpr e = *this;
    e.coeffs_.resize(numDims, 0);
    return e;
  }

  friend AffineExpr operator+(AffineExpr a, const AffineExpr& b) {
    PIPOLY_CHECK(a.numDims() == b.numDims());
    for (std::size_t i = 0; i < a.coeffs_.size(); ++i)
      a.coeffs_[i] += b.coeffs_[i];
    a.constant_ += b.constant_;
    return a;
  }
  friend AffineExpr operator-(AffineExpr a, const AffineExpr& b) {
    PIPOLY_CHECK(a.numDims() == b.numDims());
    for (std::size_t i = 0; i < a.coeffs_.size(); ++i)
      a.coeffs_[i] -= b.coeffs_[i];
    a.constant_ -= b.constant_;
    return a;
  }
  friend AffineExpr operator-(AffineExpr a) {
    for (auto& c : a.coeffs_)
      c = -c;
    a.constant_ = -a.constant_;
    return a;
  }
  friend AffineExpr operator*(Value k, AffineExpr a) {
    for (auto& c : a.coeffs_)
      c *= k;
    a.constant_ *= k;
    return a;
  }
  friend AffineExpr operator*(AffineExpr a, Value k) { return k * std::move(a); }
  friend AffineExpr operator+(AffineExpr a, Value k) {
    a.constant_ += k;
    return a;
  }
  friend AffineExpr operator+(Value k, AffineExpr a) { return std::move(a) + k; }
  friend AffineExpr operator-(AffineExpr a, Value k) {
    a.constant_ -= k;
    return a;
  }

  friend bool operator==(const AffineExpr&, const AffineExpr&) = default;

  /// Renders with dimension names d0, d1, ... or caller-provided names.
  std::string toString(const std::vector<std::string>& dimNames = {}) const;

private:
  std::vector<Value> coeffs_;
  Value constant_ = 0;
};

/// An affine function Z^n -> Z^m given by m affine expressions.
class AffineMap {
public:
  AffineMap() = default;
  AffineMap(std::size_t numInputs, std::vector<AffineExpr> outputs)
      : numInputs_(numInputs), outputs_(std::move(outputs)) {
    for (const AffineExpr& e : outputs_)
      PIPOLY_CHECK(e.numDims() == numInputs_);
  }

  static AffineMap identity(std::size_t n) {
    std::vector<AffineExpr> outs;
    outs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      outs.push_back(AffineExpr::dim(n, i));
    return AffineMap(n, std::move(outs));
  }

  std::size_t numInputs() const { return numInputs_; }
  std::size_t numOutputs() const { return outputs_.size(); }
  const std::vector<AffineExpr>& outputs() const { return outputs_; }
  const AffineExpr& output(std::size_t i) const { return outputs_[i]; }

  Tuple evaluate(const Tuple& point) const {
    PIPOLY_ASSERT(point.size() == numInputs_);
    Tuple out = Tuple::zeros(outputs_.size());
    evaluate(point.data(), out.data());
    return out;
  }
  /// Row form: reads numInputs() values at `point` and writes the
  /// numOutputs() results to `out`, allocating nothing.
  void evaluate(const Value* point, Value* out) const {
    for (std::size_t k = 0; k < outputs_.size(); ++k)
      out[k] = outputs_[k].evaluate(point);
  }

  friend bool operator==(const AffineMap&, const AffineMap&) = default;

  std::string toString(const std::vector<std::string>& dimNames = {}) const;

private:
  std::size_t numInputs_ = 0;
  std::vector<AffineExpr> outputs_;
};

} // namespace pipoly::pb
