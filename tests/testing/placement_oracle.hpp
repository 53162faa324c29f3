#pragma once

// Test-only reference for rt::placeStages (runtime/placement.hpp):
// bruteForceOptimum enumerates every contiguous partition of the stages
// over min(workers, stage count) non-empty worker ranges and returns the
// lexicographic (maxLoad, severed bytes) optimum that the DP must reach.

#include "runtime/placement.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <tuple>
#include <vector>

namespace pipoly::testing {

struct CutCost {
  std::uint64_t maxLoad = 0;
  /// Per cut, the bytes of every edge spanning it (an edge crossing k
  /// cuts counts k times — the DP's cut weight).
  std::uint64_t severed = 0;

  bool operator==(const CutCost& o) const {
    return maxLoad == o.maxLoad && severed == o.severed;
  }
  bool operator<(const CutCost& o) const {
    return std::tie(maxLoad, severed) < std::tie(o.maxLoad, o.severed);
  }
  friend std::ostream& operator<<(std::ostream& os, const CutCost& c) {
    return os << "(maxLoad " << c.maxLoad << ", severed " << c.severed << ")";
  }
};

/// (maxLoad, severed) of the contiguous partition whose ranges start at
/// `begins` (ascending, begins[0] == 0).
inline CutCost cutCost(const std::vector<std::size_t>& stageTasks,
                       const std::vector<rt::StageEdge>& edges,
                       const std::vector<std::size_t>& begins) {
  CutCost c;
  for (std::size_t k = 0; k < begins.size(); ++k) {
    const std::size_t end =
        k + 1 < begins.size() ? begins[k + 1] : stageTasks.size();
    std::uint64_t load = 0;
    for (std::size_t s = begins[k]; s < end; ++s)
      load += stageTasks[s];
    c.maxLoad = std::max(c.maxLoad, load);
  }
  for (std::size_t k = 1; k < begins.size(); ++k)
    for (const rt::StageEdge& e : edges)
      if (std::min(e.src, e.tgt) < begins[k] &&
          begins[k] <= std::max(e.src, e.tgt))
        c.severed += e.bytes;
  return c;
}

/// The optimum over every way to cut stageTasks.size() stages into
/// min(workers, stage count) non-empty contiguous ranges.
inline CutCost bruteForceOptimum(const std::vector<std::size_t>& stageTasks,
                                 unsigned workers,
                                 const std::vector<rt::StageEdge>& edges) {
  const std::size_t ranges = std::min<std::size_t>(
      std::max(workers, 1u), stageTasks.size());
  CutCost best{UINT64_MAX, UINT64_MAX};
  std::vector<std::size_t> begins{0};
  auto rec = [&](auto&& self) -> void {
    if (begins.size() == ranges) {
      best = std::min(best, cutCost(stageTasks, edges, begins));
      return;
    }
    // Leave at least one stage for each range still to open.
    const std::size_t left = ranges - begins.size();
    for (std::size_t b = begins.back() + 1; b + left <= stageTasks.size();
         ++b) {
      begins.push_back(b);
      self(self);
      begins.pop_back();
    }
  };
  if (ranges != 0)
    rec(rec);
  return best;
}

} // namespace pipoly::testing
