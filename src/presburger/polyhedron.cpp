#include "presburger/polyhedron.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace pipoly::pb {

namespace {

using Wide = __int128;

Value narrow(Wide v) {
  PIPOLY_CHECK_MSG(v >= Wide(std::numeric_limits<Value>::min()) &&
                       v <= Wide(std::numeric_limits<Value>::max()),
                   "coefficient overflow in Fourier–Motzkin elimination");
  return static_cast<Value>(v);
}

/// Combines two inequalities to eliminate dimension `dim`:
/// lower has coeff > 0 on dim, upper has coeff < 0.
AffineExpr combine(const AffineExpr& lower, const AffineExpr& upper,
                   std::size_t dim) {
  const Wide a = lower.coeff(dim);  // > 0
  const Wide b = -upper.coeff(dim); // > 0
  const std::size_t n = lower.numDims();
  std::vector<Value> coeffs(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    coeffs[i] = narrow(b * Wide(lower.coeff(i)) + a * Wide(upper.coeff(i)));
  Value cst =
      narrow(b * Wide(lower.constantTerm()) + a * Wide(upper.constantTerm()));
  PIPOLY_ASSERT(coeffs[dim] == 0);
  return AffineExpr(std::move(coeffs), cst);
}

/// Integer tightening: divide an inequality a·x + c >= 0 by g = gcd of the
/// coefficients and floor the constant.
AffineExpr tightenGE(AffineExpr e) {
  Value g = 0;
  for (std::size_t i = 0; i < e.numDims(); ++i)
    g = std::gcd(g, e.coeff(i));
  if (g <= 1)
    return e;
  for (std::size_t i = 0; i < e.numDims(); ++i)
    e.coeff(i) /= g;
  // floor division of the constant keeps all integer solutions.
  Value c = e.constantTerm();
  e.constantTerm() = (c >= 0) ? c / g : -((-c + g - 1) / g);
  return e;
}

bool isTriviallyTrue(const Constraint& c) {
  if (!c.expr().isConstant())
    return false;
  Value v = c.expr().constantTerm();
  return c.isEquality() ? v == 0 : v >= 0;
}

} // namespace

Polyhedron::Polyhedron(std::size_t numDims, std::vector<Constraint> constraints)
    : numDims_(numDims), constraints_(std::move(constraints)) {
  for (const Constraint& c : constraints_)
    PIPOLY_CHECK(c.expr().numDims() == numDims_);
}

Polyhedron& Polyhedron::add(Constraint c) {
  PIPOLY_CHECK(c.expr().numDims() == numDims_);
  constraints_.push_back(std::move(c));
  prefixCache_.clear();
  return *this;
}

bool Polyhedron::contains(const Tuple& point) const {
  PIPOLY_CHECK(point.size() == numDims_);
  return std::all_of(constraints_.begin(), constraints_.end(),
                     [&](const Constraint& c) { return c.isSatisfied(point); });
}

Polyhedron Polyhedron::projectOutLastDim() const {
  PIPOLY_CHECK(numDims_ > 0);
  const std::size_t dim = numDims_ - 1;

  // Split equalities involving `dim` into two inequalities first.
  std::vector<AffineExpr> lowers, uppers;
  std::vector<Constraint> kept;
  for (const Constraint& c : constraints_) {
    const Value coeff = c.expr().coeff(dim);
    if (coeff == 0) {
      // Keep, narrowed to the smaller dimensionality.
      AffineExpr e = c.expr();
      std::vector<Value> coeffs(e.numDims() - 1);
      for (std::size_t i = 0; i + 1 < e.numDims(); ++i)
        coeffs[i] = e.coeff(i);
      kept.emplace_back(AffineExpr(std::move(coeffs), e.constantTerm()),
                        c.kind());
      continue;
    }
    if (c.isEquality()) {
      lowers.push_back(c.expr());
      uppers.push_back(-c.expr());
      if (coeff < 0)
        std::swap(lowers.back(), uppers.back());
    } else if (coeff > 0) {
      lowers.push_back(c.expr());
    } else {
      uppers.push_back(c.expr());
    }
  }

  Polyhedron out(numDims_ - 1, std::move(kept));
  for (const AffineExpr& lo : lowers) {
    for (const AffineExpr& up : uppers) {
      AffineExpr combined = tightenGE(combine(lo, up, dim));
      std::vector<Value> coeffs(combined.numDims() - 1);
      for (std::size_t i = 0; i + 1 < combined.numDims(); ++i)
        coeffs[i] = combined.coeff(i);
      Constraint c =
          Constraint::ge(AffineExpr(std::move(coeffs), combined.constantTerm()));
      if (!isTriviallyTrue(c))
        out.add(std::move(c));
    }
  }
  return out;
}

std::optional<DimBounds> Polyhedron::boundsOfDim(std::size_t dim,
                                                 const Tuple& prefix) const {
  PIPOLY_CHECK(dim < numDims_);
  PIPOLY_CHECK(prefix.size() >= dim);

  bool hasLower = false, hasUpper = false;
  Value lower = 0, upper = 0;
  for (const Constraint& c : constraints_) {
    const AffineExpr& e = c.expr();
    const Value coeff = e.coeff(dim);
    // Only constraints with support within dims 0..dim are usable here; the
    // caller provides a projected system, but be defensive and skip others.
    bool usable = true;
    for (std::size_t i = dim + 1; i < numDims_; ++i)
      if (e.coeff(i) != 0)
        usable = false;
    if (!usable || coeff == 0)
      continue;

    Value rest = e.constantTerm();
    for (std::size_t i = 0; i < dim; ++i)
      rest += e.coeff(i) * prefix[i];
    // coeff * x + rest >= 0  (equality contributes both directions)
    if (coeff > 0 || c.isEquality()) {
      const Value a = coeff > 0 ? coeff : -coeff;
      const Value r = coeff > 0 ? rest : -rest;
      // x >= ceil(-r / a)
      Value bound = -r >= 0 ? (-r + a - 1) / a : -((r) / a);
      if (!hasLower || bound > lower)
        lower = bound;
      hasLower = true;
    }
    if (coeff < 0 || c.isEquality()) {
      const Value a = coeff < 0 ? -coeff : coeff;
      const Value r = coeff < 0 ? rest : -rest;
      // x <= floor(r / a)
      Value bound = r >= 0 ? r / a : -((-r + a - 1) / a);
      if (!hasUpper || bound < upper)
        upper = bound;
      hasUpper = true;
    }
  }
  PIPOLY_CHECK_MSG(hasLower && hasUpper,
                   "dimension is unbounded; sets must be bounded");
  if (lower > upper)
    return std::nullopt;
  return DimBounds{lower, upper};
}

const std::vector<Polyhedron>& Polyhedron::prefixSystems() const {
  if (!prefixCache_.empty())
    return prefixCache_;
  prefixCache_.resize(numDims_, Polyhedron(0));
  Polyhedron cur = *this;
  for (std::size_t k = numDims_; k-- > 0;) {
    prefixCache_[k] = cur;
    if (k > 0)
      cur = cur.projectOutLastDim();
  }
  return prefixCache_;
}

void Polyhedron::forEachPoint(
    const std::function<bool(const Tuple&)>& visit) const {
  if (numDims_ == 0) {
    if (contains(Tuple{}))
      visit(Tuple{});
    return;
  }
  const auto& systems = prefixSystems();

  std::vector<Value> current(numDims_, 0);
  // Recursive descent over dimensions with exact filtering at each level:
  // systems[k] only contains dims 0..k, so a point failing there can be
  // pruned immediately.
  std::function<bool(std::size_t)> descend = [&](std::size_t k) -> bool {
    Tuple prefix(std::vector<Value>(current.begin(),
                                    current.begin() + static_cast<long>(k)));
    auto bounds = systems[k].boundsOfDim(k, prefix);
    if (!bounds)
      return true;
    for (Value v = bounds->lower; v <= bounds->upper; ++v) {
      current[k] = v;
      Tuple pt(std::vector<Value>(current.begin(),
                                  current.begin() + static_cast<long>(k) + 1));
      if (!systems[k].contains(pt))
        continue;
      if (k + 1 == numDims_) {
        if (!visit(pt))
          return false;
      } else if (!descend(k + 1)) {
        return false;
      }
    }
    return true;
  };
  descend(0);
}

std::string Polyhedron::toString(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{ ";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i)
      os << " and ";
    os << constraints_[i].toString(names);
  }
  os << " }";
  return os.str();
}

} // namespace pipoly::pb
