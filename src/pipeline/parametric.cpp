#include "pipeline/parametric.hpp"

#include "support/assert.hpp"
#include "support/str.hpp"

namespace pipoly::pipeline {

pb::ParamSet
ParamRectStatement::domain(const std::vector<std::string>& dimNames) const {
  pb::ParamSet set(pb::Space(name, depth()), dimNames);
  for (std::size_t d = 0; d < depth(); ++d)
    set.bound(d, bounds[d].first, bounds[d].second);
  return set;
}

pb::ParamMap parametricPipelineMap(const ParamRectStatement& source,
                                   const ParamRectStatement& target,
                                   const SeparableRead& read) {
  const std::size_t n = source.depth();
  PIPOLY_CHECK_MSG(target.depth() == n && read.coeffs.size() == n &&
                       read.offsets.size() == n,
                   "parametric pipeline map needs matching depths");
  for (pb::Value c : read.coeffs)
    PIPOLY_CHECK_MSG(c >= 1, "separable read coefficients must be >= 1");

  // Dim names: i0..i{n-1} for the source side, o0..o{n-1} for the target
  // (matching the paper's §4.1 naming).
  std::vector<std::string> dimNames;
  for (std::size_t d = 0; d < n; ++d)
    dimNames.push_back(indexedName("i", d));
  for (std::size_t d = 0; d < n; ++d)
    dimNames.push_back(indexedName("o", d));

  pb::ParamMap map(pb::Space(source.name, n), pb::Space(target.name, n),
                   dimNames);
  const std::size_t total = 2 * n;

  // i_d = c_d * o_d + o_d^offset.
  for (std::size_t d = 0; d < n; ++d) {
    pb::ParamConstraint eq;
    eq.dimCoeffs.assign(total, 0);
    eq.dimCoeffs[d] = 1;
    eq.dimCoeffs[n + d] = -read.coeffs[d];
    eq.paramPart = pb::ParamExpr(0) - read.offsets[d];
    eq.kind = pb::Constraint::Kind::EQ;
    map.add(std::move(eq));
  }

  // Target domain bounds on the o dims; source domain bounds on the i
  // dims (the latter restrict to reads of actually-written elements).
  auto addBounds = [&](const ParamRectStatement& stmt, std::size_t base) {
    for (std::size_t d = 0; d < stmt.depth(); ++d) {
      pb::ParamConstraint lower;
      lower.dimCoeffs.assign(total, 0);
      lower.dimCoeffs[base + d] = 1;
      lower.paramPart = pb::ParamExpr(0) - stmt.bounds[d].first;
      map.add(std::move(lower));
      pb::ParamConstraint upper;
      upper.dimCoeffs.assign(total, 0);
      upper.dimCoeffs[base + d] = -1;
      upper.paramPart = stmt.bounds[d].second - pb::ParamExpr(1);
      map.add(std::move(upper));
    }
  };
  addBounds(target, n);
  addBounds(source, 0);
  return map;
}

} // namespace pipoly::pipeline
