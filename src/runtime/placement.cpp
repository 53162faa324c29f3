#include "runtime/placement.hpp"

#include <algorithm>
#include <cstdint>

namespace pipoly::rt {

namespace {

/// Partitions the stages into `workers` contiguous non-empty ranges,
/// lexicographic (maxLoad, severed cut weight). `load` is the task-count
/// prefix sum and `cutWeight[p]` the traffic severed by a cut between
/// stages p-1 and p. Returns the `workers - 1` interior cut positions
/// (ascending); empty when workers == 1.
///
/// Two passes, because a prefix that is best in (maxLoad, cut weight)
/// need not extend to the best whole partition: a later, heavier range
/// can hide a prefix's lower load and leave only its larger cut weight.
/// Pass 1 finds the optimal maxLoad; pass 2 minimizes the severed cut
/// weight over partitions whose every range stays within it.
std::vector<std::size_t>
balancedCuts(const std::vector<std::uint64_t>& load,
             const std::vector<std::uint64_t>& cutWeight, unsigned workers) {
  const std::size_t numStages = load.size() - 1;
  const auto rangeLoad = [&](std::size_t j, std::size_t i) {
    return load[i] - load[j];
  };
  // minMax[w][i]: least max load of stages [0, i) over w workers.
  std::vector<std::vector<std::uint64_t>> minMax(
      workers + 1, std::vector<std::uint64_t>(numStages + 1, UINT64_MAX));
  minMax[0][0] = 0;
  for (unsigned w = 1; w <= workers; ++w)
    for (std::size_t i = w; i + (workers - w) <= numStages; ++i)
      for (std::size_t j = w - 1; j < i; ++j)
        if (minMax[w - 1][j] != UINT64_MAX)
          minMax[w][i] = std::min(minMax[w][i],
                                  std::max(minMax[w - 1][j], rangeLoad(j, i)));
  const std::uint64_t bound = minMax[workers][numStages];

  struct Cell {
    std::uint64_t cross = UINT64_MAX;
    std::size_t prev = 0;
  };
  // dp[w][i]: least cut weight of stages [0, i) over w workers, every
  // range within `bound`; ties keep the earliest previous cut.
  std::vector<std::vector<Cell>> dp(workers + 1,
                                    std::vector<Cell>(numStages + 1));
  dp[0][0] = {0, 0};
  for (unsigned w = 1; w <= workers; ++w)
    for (std::size_t i = w; i + (workers - w) <= numStages; ++i)
      for (std::size_t j = w - 1; j < i; ++j) {
        const Cell& base = dp[w - 1][j];
        if (base.cross == UINT64_MAX || rangeLoad(j, i) > bound)
          continue;
        const std::uint64_t cross = base.cross + (j != 0 ? cutWeight[j] : 0);
        if (cross < dp[w][i].cross)
          dp[w][i] = {cross, j};
      }

  std::vector<std::size_t> cuts(workers - 1, 0);
  std::size_t end = numStages;
  for (unsigned w = workers; w >= 2; --w) {
    end = dp[w][end].prev;
    cuts[w - 2] = end;
  }
  return cuts;
}

/// The DP's cuts over all stages, on min(workers, stage count)
/// non-empty contiguous ranges.
std::vector<std::vector<std::size_t>>
balancedPlacement(const std::vector<std::size_t>& stageTasks, unsigned workers,
                  const std::vector<StageEdge>& edges) {
  std::vector<std::vector<std::size_t>> owned(workers);
  const std::size_t numStages = stageTasks.size();
  if (numStages == 0)
    return owned;
  std::vector<std::uint64_t> load(numStages + 1, 0);
  for (std::size_t s = 0; s < numStages; ++s)
    load[s + 1] = load[s] + stageTasks[s];
  std::vector<std::uint64_t> cutWeight(numStages + 1, 0);
  for (const StageEdge& e : edges) {
    const auto [lo, hi] = std::minmax(e.src, e.tgt);
    for (std::size_t p = lo + 1; p <= hi; ++p)
      cutWeight[p] += e.bytes;
  }
  const unsigned eff =
      static_cast<unsigned>(std::min<std::size_t>(workers, numStages));
  const std::vector<std::size_t> cuts = balancedCuts(load, cutWeight, eff);
  std::size_t begin = 0;
  for (unsigned w = 0; w < eff; ++w) {
    const std::size_t end = w + 1 < eff ? cuts[w] : numStages;
    for (std::size_t s = begin; s < end; ++s)
      owned[w].push_back(s);
    begin = end;
  }
  return owned;
}

} // namespace

Placement placeStages(const std::vector<std::size_t>& stageTasks,
                      unsigned workers, const std::vector<StageEdge>& edges) {
  Placement p;
  p.ownedStages = balancedPlacement(stageTasks, std::max(workers, 1u), edges);
  p.workerOfStage.assign(stageTasks.size(), 0);
  for (std::size_t w = 0; w < p.ownedStages.size(); ++w) {
    std::uint64_t load = 0;
    for (const std::size_t s : p.ownedStages[w]) {
      p.workerOfStage[s] = w;
      load += stageTasks[s];
    }
    p.maxLoad = std::max(p.maxLoad, load);
  }
  for (const StageEdge& e : edges)
    if (p.workerOfStage[e.src] != p.workerOfStage[e.tgt])
      p.crossWorkerBytes += e.bytes;
  return p;
}

} // namespace pipoly::rt
