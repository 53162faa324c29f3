#include "pipeline/blocking.hpp"

#include "support/assert.hpp"

#include <limits>

namespace pipoly::pipeline {

pb::IntTupleSet blockReps(const pb::IntTupleSet& domain,
                          const std::vector<pb::IntTupleSet>& boundarySets) {
  if (domain.empty())
    return domain;
  const std::size_t a = domain.arity();
  if (a == 0)
    return domain; // one point, one block
  pb::RowBuffer rows;
  for (const pb::IntTupleSet& b : boundarySets) {
    PIPOLY_CHECK(b.space() == domain.space());
    rows.insert(rows.end(), b.rowData().begin(), b.rowData().end());
  }
  const pb::Value* last = &domain.rowData()[(domain.size() - 1) * a];
  pb::rows::append(rows, last, a);
  return pb::IntTupleSet::fromRows(domain.space(), std::move(rows));
}

std::vector<std::uint32_t> blockStarts(const pb::IntTupleSet& domain,
                                       const pb::IntTupleSet& reps) {
  PIPOLY_CHECK_MSG(domain.size() < std::numeric_limits<std::uint32_t>::max(),
                   "domain too large for 32-bit row indices");
  std::vector<std::uint32_t> starts;
  starts.reserve(reps.size() + 1);
  starts.push_back(0);
  const std::size_t a = domain.arity(), n = domain.size();
  if (a == 0) {
    if (!reps.empty())
      starts.push_back(static_cast<std::uint32_t>(n));
    return starts;
  }
  const pb::Value* dom = domain.rowData().data();
  std::size_t row = 0;
  for (const pb::TupleView rep : reps.points()) {
    row = pb::rows::gallopLowerBound(dom, n, a, row, rep.data(), a);
    PIPOLY_CHECK_MSG(row < n && pb::rows::equal(dom + row * a, rep.data(), a),
                     "block representative outside the domain");
    starts.push_back(static_cast<std::uint32_t>(++row));
  }
  PIPOLY_CHECK_MSG(starts.back() == n,
                   "the last block must end at the domain's lexmax");
  return starts;
}

std::size_t blockOf(const pb::IntTupleSet& reps, const pb::Value* iteration,
                    std::size_t hint) {
  const std::size_t a = reps.arity(), n = reps.size();
  const pb::Value* base = reps.rowData().data();
  // Gallop from the hint only when every representative before it is
  // smaller than the iteration.
  if (hint > n || (hint > 0 && !pb::rows::less(base + (hint - 1) * a,
                                               iteration, a)))
    hint = 0;
  return pb::rows::gallopLowerBound(base, n, a, hint, iteration, a);
}

} // namespace pipoly::pipeline
