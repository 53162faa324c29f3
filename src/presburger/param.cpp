#include "presburger/param.hpp"

#include "support/assert.hpp"
#include "support/str.hpp"

#include <sstream>

namespace pipoly::pb {

Value ParamExpr::evaluate(const ParamBindings& bindings) const {
  Value acc = constant_;
  for (const auto& [name, coeff] : coeffs_) {
    auto it = bindings.find(name);
    PIPOLY_CHECK_MSG(it != bindings.end(),
                     "unbound parameter '" + name + "'");
    acc += coeff * it->second;
  }
  return acc;
}

ParamExpr operator+(ParamExpr a, const ParamExpr& b) {
  for (const auto& [name, coeff] : b.coeffs_)
    if ((a.coeffs_[name] += coeff) == 0)
      a.coeffs_.erase(name);
  a.constant_ += b.constant_;
  return a;
}

ParamExpr operator-(ParamExpr a, const ParamExpr& b) {
  for (const auto& [name, coeff] : b.coeffs_)
    if ((a.coeffs_[name] -= coeff) == 0)
      a.coeffs_.erase(name);
  a.constant_ -= b.constant_;
  return a;
}

ParamExpr operator*(Value k, ParamExpr a) {
  if (k == 0)
    return ParamExpr(0);
  for (auto& [name, coeff] : a.coeffs_)
    coeff *= k;
  a.constant_ *= k;
  return a;
}

std::string ParamExpr::toString() const {
  std::ostringstream os;
  bool any = false;
  for (const auto& [name, coeff] : coeffs_) {
    if (any)
      os << (coeff > 0 ? " + " : " - ");
    else if (coeff < 0)
      os << '-';
    Value a = coeff > 0 ? coeff : -coeff;
    if (a != 1)
      os << a << '*';
    os << name;
    any = true;
  }
  if (constant_ != 0 || !any) {
    if (any)
      os << (constant_ >= 0 ? " + " : " - ");
    os << (any && constant_ < 0 ? -constant_ : constant_);
  }
  return os.str();
}

Constraint ParamConstraint::instantiate(const ParamBindings& bindings) const {
  AffineExpr e(dimCoeffs.size(), paramPart.evaluate(bindings));
  for (std::size_t d = 0; d < dimCoeffs.size(); ++d)
    e.coeff(d) = dimCoeffs[d];
  return Constraint(std::move(e), kind);
}

std::string
ParamConstraint::toString(const std::vector<std::string>& dimNames) const {
  std::ostringstream os;
  bool any = false;
  for (std::size_t d = 0; d < dimCoeffs.size(); ++d) {
    const Value c = dimCoeffs[d];
    if (c == 0)
      continue;
    if (any)
      os << (c > 0 ? " + " : " - ");
    else if (c < 0)
      os << '-';
    const Value a = c > 0 ? c : -c;
    if (a != 1)
      os << a << '*';
    os << (d < dimNames.size() ? dimNames[d] : indexedName("d", d));
    any = true;
  }
  const std::string params = paramPart.toString();
  if (!any)
    os << params;
  else if (params != "0")
    os << " + " << params;
  os << (kind == Constraint::Kind::EQ ? " = 0" : " >= 0");
  return os.str();
}

ParamSet& ParamSet::add(ParamConstraint c) {
  PIPOLY_CHECK(c.dimCoeffs.size() == space_.arity());
  constraints_.push_back(std::move(c));
  return *this;
}

ParamSet& ParamSet::bound(std::size_t dim, const ParamExpr& lo,
                          const ParamExpr& hi) {
  PIPOLY_CHECK(dim < space_.arity());
  ParamConstraint lower;
  lower.dimCoeffs.assign(space_.arity(), 0);
  lower.dimCoeffs[dim] = 1;
  lower.paramPart = ParamExpr(0) - lo;
  add(std::move(lower));
  ParamConstraint upper;
  upper.dimCoeffs.assign(space_.arity(), 0);
  upper.dimCoeffs[dim] = -1;
  upper.paramPart = hi - ParamExpr(1);
  return add(std::move(upper));
}

Polyhedron ParamSet::instantiate(const ParamBindings& bindings) const {
  Polyhedron p(space_.arity());
  for (const ParamConstraint& c : constraints_)
    p.add(c.instantiate(bindings));
  return p;
}

IntTupleSet ParamSet::points(const ParamBindings& bindings) const {
  return IntTupleSet::fromPolyhedron(space_, instantiate(bindings));
}

std::string ParamSet::toString() const {
  std::ostringstream os;
  os << "{ " << space_.name() << '[';
  for (std::size_t d = 0; d < space_.arity(); ++d)
    os << (d ? ", " : "")
       << (d < dimNames_.size() ? dimNames_[d] : indexedName("d", d));
  os << "] : ";
  for (std::size_t i = 0; i < constraints_.size(); ++i)
    os << (i ? " and " : "") << constraints_[i].toString(dimNames_);
  os << " }";
  return os.str();
}

ParamMap& ParamMap::add(ParamConstraint c) {
  PIPOLY_CHECK(c.dimCoeffs.size() == numDims());
  constraints_.push_back(std::move(c));
  return *this;
}

IntMap ParamMap::instantiate(const ParamBindings& bindings) const {
  Polyhedron p(numDims());
  for (const ParamConstraint& c : constraints_)
    p.add(c.instantiate(bindings));
  std::vector<IntMap::Pair> pairs;
  for (const Tuple& pt : p.enumerate())
    pairs.emplace_back(pt.slice(0, in_.arity()),
                       pt.slice(in_.arity(), numDims()));
  return IntMap(in_, out_, std::move(pairs));
}

std::string ParamMap::toString() const {
  std::ostringstream os;
  auto dimName = [&](std::size_t d) {
    return d < dimNames_.size() ? dimNames_[d] : indexedName("d", d);
  };
  os << "{ " << in_.name() << '[';
  for (std::size_t d = 0; d < in_.arity(); ++d)
    os << (d ? ", " : "") << dimName(d);
  os << "] -> " << out_.name() << '[';
  for (std::size_t d = 0; d < out_.arity(); ++d)
    os << (d ? ", " : "") << dimName(in_.arity() + d);
  os << "] : ";
  for (std::size_t i = 0; i < constraints_.size(); ++i)
    os << (i ? " and " : "") << constraints_[i].toString(dimNames_);
  os << " }";
  return os.str();
}

} // namespace pipoly::pb
