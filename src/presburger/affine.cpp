#include "presburger/affine.hpp"

#include "support/str.hpp"

#include <sstream>

namespace pipoly::pb {

namespace {
std::string dimName(const std::vector<std::string>& names, std::size_t i) {
  if (i < names.size())
    return names[i];
  return indexedName("d", i);
}
} // namespace

std::string AffineExpr::toString(const std::vector<std::string>& names) const {
  std::ostringstream os;
  bool any = false;
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    Value c = coeffs_[i];
    if (c == 0)
      continue;
    if (any)
      os << (c > 0 ? " + " : " - ");
    else if (c < 0)
      os << '-';
    Value a = c > 0 ? c : -c;
    if (a != 1)
      os << a << '*';
    os << dimName(names, i);
    any = true;
  }
  if (constant_ != 0 || !any) {
    if (any)
      os << (constant_ >= 0 ? " + " : " - ");
    Value a = constant_;
    if (any && a < 0)
      a = -a;
    os << a;
  }
  return os.str();
}

std::string AffineMap::toString(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (i)
      os << ", ";
    os << outputs_[i].toString(names);
  }
  os << ')';
  return os.str();
}

} // namespace pipoly::pb
