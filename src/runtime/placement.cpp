#include "runtime/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>

namespace pipoly::rt {

namespace {

/// The PR 8 DP on the stage subrange [lo, hi): partitions it into
/// `workers` contiguous non-empty ranges, lexicographic (maxLoad,
/// severed cut weight). `load` is the global task-count prefix sum and
/// `cutWeight[p]` the traffic severed by a cut between stages p-1 and p
/// — both global, so on [0, S) this is the uniform-topology placement.
/// Returns the `workers - 1` interior cut positions (ascending, global
/// stage indices); empty when workers == 1.
///
/// Two passes, because a prefix that is best in (maxLoad, cut weight)
/// need not extend to the best whole partition: a later, heavier range
/// can hide a prefix's lower load and leave only its larger cut weight.
/// Pass 1 finds the optimal maxLoad; pass 2 minimizes the severed cut
/// weight over partitions whose every range stays within it.
std::vector<std::size_t>
balancedCuts(const std::vector<std::uint64_t>& load,
             const std::vector<std::uint64_t>& cutWeight, std::size_t lo,
             std::size_t hi, unsigned workers) {
  const std::size_t numStages = hi - lo;
  const auto rangeLoad = [&](std::size_t j, std::size_t i) {
    return load[lo + i] - load[lo + j];
  };
  // minMax[w][i]: least max load of stages [lo, lo + i) over w workers.
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
  // dp[w][i]: least cut weight of stages [lo, lo + i) over w workers,
  // every range within `bound`; ties keep the earliest previous cut.
  std::vector<std::vector<Cell>> dp(workers + 1,
                                    std::vector<Cell>(numStages + 1));
  dp[0][0] = {0, 0};
  for (unsigned w = 1; w <= workers; ++w)
    for (std::size_t i = w; i + (workers - w) <= numStages; ++i)
      for (std::size_t j = w - 1; j < i; ++j) {
        const Cell& base = dp[w - 1][j];
        if (base.cross == UINT64_MAX || rangeLoad(j, i) > bound)
          continue;
        const std::uint64_t cross =
            base.cross + (j != 0 ? cutWeight[lo + j] : 0);
        if (cross < dp[w][i].cross)
          dp[w][i] = {cross, j};
      }

  std::vector<std::size_t> cuts(workers - 1, 0);
  std::size_t end = numStages;
  for (unsigned w = workers; w >= 2; --w) {
    end = dp[w][end].prev;
    cuts[w - 2] = lo + end;
  }
  return cuts;
}

std::vector<std::uint64_t> taskPrefix(const std::vector<std::size_t>& tasks) {
  std::vector<std::uint64_t> load(tasks.size() + 1, 0);
  for (std::size_t s = 0; s < tasks.size(); ++s)
    load[s + 1] = load[s] + tasks[s];
  return load;
}

std::vector<std::uint64_t> cutWeights(std::size_t numStages,
                                      const std::vector<StageEdge>& edges) {
  std::vector<std::uint64_t> cutWeight(numStages + 1, 0);
  for (const StageEdge& e : edges) {
    const auto [lo, hi] = std::minmax(e.src, e.tgt);
    for (std::size_t p = lo + 1; p <= hi; ++p)
      cutWeight[p] += e.bytes;
  }
  return cutWeight;
}

/// Fills workerOfStage/domainOfStage and every diagnostic from
/// ownedStages; the scalarized objective uses `scale` precomputed by the
/// caller (totalLoad / totalBytes, or 0 for maxLoad alone) so candidates
/// compare consistently.
void finalize(Placement& p, const std::vector<std::size_t>& stageTasks,
              const std::vector<StageEdge>& edges, const Topology& topology,
              double scale) {
  const std::size_t numStages = stageTasks.size();
  p.workerOfStage.assign(numStages, 0);
  p.domainOfStage.assign(numStages, 0);
  p.maxLoad = 0;
  for (std::size_t w = 0; w < p.ownedStages.size(); ++w) {
    std::uint64_t load = 0;
    for (const std::size_t s : p.ownedStages[w]) {
      p.workerOfStage[s] = w;
      if (w < topology.domainOfWorker.size())
        p.domainOfStage[s] = topology.domainOfWorker[w];
      load += stageTasks[s];
    }
    p.maxLoad = std::max(p.maxLoad, load);
  }
  p.crossWorkerBytes = 0;
  p.crossDomainBytes = 0;
  p.commCost = 0.0;
  for (const StageEdge& e : edges) {
    if (p.workerOfStage[e.src] == p.workerOfStage[e.tgt])
      continue;
    p.crossWorkerBytes += e.bytes;
    const unsigned da = p.domainOfStage[e.src];
    const unsigned db = p.domainOfStage[e.tgt];
    if (da != db)
      p.crossDomainBytes += e.bytes;
    p.commCost += static_cast<double>(e.bytes) * topology.costClass(da, db);
  }
  p.objective = static_cast<double>(p.maxLoad) + p.commCost * scale;
}

/// The uniform-topology branch: the PR 8 DP over all stages, on
/// min(workers, stage count) non-empty contiguous ranges.
Placement balancedPlacement(const std::vector<std::size_t>& stageTasks,
                            unsigned workers,
                            const std::vector<StageEdge>& edges,
                            const Topology& topology) {
  Placement p;
  p.ownedStages.assign(workers, {});
  const std::size_t numStages = stageTasks.size();
  if (numStages != 0) {
    const unsigned eff = static_cast<unsigned>(
        std::min<std::size_t>(workers, numStages));
    const std::vector<std::uint64_t> load = taskPrefix(stageTasks);
    const std::vector<std::uint64_t> cutWeight = cutWeights(numStages, edges);
    const std::vector<std::size_t> cuts =
        balancedCuts(load, cutWeight, 0, numStages, eff);
    std::size_t begin = 0;
    for (unsigned w = 0; w < eff; ++w) {
      const std::size_t end = w + 1 < eff ? cuts[w] : numStages;
      for (std::size_t s = begin; s < end; ++s)
        p.ownedStages[w].push_back(s);
      begin = end;
    }
  }
  finalize(p, stageTasks, edges, topology, 0.0);
  return p;
}

} // namespace

Placement placeStages(const std::vector<std::size_t>& stageTasks,
                      unsigned workers, const std::vector<StageEdge>& edges,
                      const Topology& topology) {
  workers = std::max(workers, 1u);
  const std::size_t numStages = stageTasks.size();
  const Topology topo = topology.numWorkers() == workers
                            ? topology
                            : topology.resized(workers);

  // A uniform topology cannot distinguish placements by domain: the
  // load-balancing DP decides alone.
  if (topo.uniform() || numStages == 0)
    return balancedPlacement(stageTasks, workers, edges, topo);

  const unsigned numDomains = topo.numDomains();

  // Workers of each domain, ascending worker id: domain d's stage range
  // is dealt out to these in order (contiguous subranges per worker).
  std::vector<std::vector<unsigned>> workersOfDomain(numDomains);
  for (unsigned w = 0; w < workers; ++w)
    workersOfDomain[topo.domainOfWorker[w]].push_back(w);

  const std::vector<std::uint64_t> load = taskPrefix(stageTasks);
  const std::vector<std::uint64_t> cutWeight = cutWeights(numStages, edges);
  const std::uint64_t totalLoad = load[numStages];
  std::uint64_t totalBytes = 0;
  for (const StageEdge& e : edges)
    totalBytes += e.bytes;
  const double scale = static_cast<double>(totalLoad) /
                       static_cast<double>(std::max<std::uint64_t>(totalBytes,
                                                                   1));

  // Builds the full placement for one domain cut vector: domain d owns
  // stages [cut[d], cut[d+1]), split among its workers by the PR 8 DP.
  // Returns false when a stage lands in a worker-less domain.
  auto buildCandidate = [&](const std::vector<std::size_t>& cut,
                            Placement& p) -> bool {
    p.ownedStages.assign(workers, {});
    for (unsigned d = 0; d < numDomains; ++d) {
      const std::size_t lo = cut[d];
      const std::size_t hi = cut[d + 1];
      if (lo == hi)
        continue;
      const std::vector<unsigned>& ws = workersOfDomain[d];
      if (ws.empty())
        return false;
      const unsigned eff = static_cast<unsigned>(
          std::min<std::size_t>(ws.size(), hi - lo));
      const std::vector<std::size_t> cuts =
          balancedCuts(load, cutWeight, lo, hi, eff);
      std::size_t begin = lo;
      for (unsigned k = 0; k < eff; ++k) {
        const std::size_t end = k + 1 < eff ? cuts[k] : hi;
        for (std::size_t s = begin; s < end; ++s)
          p.ownedStages[ws[k]].push_back(s);
        begin = end;
      }
    }
    finalize(p, stageTasks, edges, topo, scale);
    return true;
  };

  Placement best;
  bool haveBest = false;
  auto consider = [&](const std::vector<std::size_t>& cut) {
    Placement cand;
    if (!buildCandidate(cut, cand))
      return;
    if (!haveBest ||
        std::tie(cand.objective, cand.maxLoad, cand.commCost) <
            std::tie(best.objective, best.maxLoad, best.commCost)) {
      best = std::move(cand);
      haveBest = true;
    }
  };

  // Candidate count is C(S + D - 1, D - 1); stage counts are statement
  // counts (tiny), so exhaustive enumeration is the norm. The guard only
  // trips on degenerate inputs, where a single load-proportional cut
  // vector stands in.
  double combos = 1.0;
  for (unsigned d = 1; d < numDomains; ++d)
    combos *= static_cast<double>(numStages + d) / static_cast<double>(d);
  if (combos <= 200000.0) {
    // Ascending-lexicographic enumeration of interior cut positions
    // 0 <= c_1 <= ... <= c_{D-1} <= S (deterministic tie-break order).
    std::vector<std::size_t> cut(numDomains + 1, 0);
    cut[numDomains] = numStages;
    auto rec = [&](auto&& self, unsigned d) -> void {
      if (d == numDomains) {
        consider(cut);
        return;
      }
      for (std::size_t c = cut[d - 1]; c <= numStages; ++c) {
        cut[d] = c;
        self(self, d + 1);
      }
    };
    rec(rec, 1);
  }
  if (!haveBest) {
    // Fallback: cut stage space proportionally to each domain's share of
    // worker slots (worker-less domains get nothing), then let the inner
    // DP balance within domains.
    std::vector<std::size_t> cut(numDomains + 1, 0);
    std::size_t assignedWorkers = 0;
    for (unsigned d = 0; d < numDomains; ++d) {
      assignedWorkers += workersOfDomain[d].size();
      cut[d + 1] = std::max(
          cut[d], std::min<std::size_t>(
                      numStages, (numStages * assignedWorkers) / workers));
    }
    cut[numDomains] = numStages;
    // Stages past the last worker-owning domain fold into it.
    for (unsigned d = numDomains; d-- > 0;) {
      if (!workersOfDomain[d].empty())
        break;
      cut[d] = cut[d + 1] = numStages;
    }
    consider(cut);
  }
  if (!haveBest) {
    // Last resort (every domain worker-less is impossible — every worker
    // slot names a domain — but stay total): everything on worker 0.
    Placement p;
    p.ownedStages.assign(workers, {});
    for (std::size_t s = 0; s < numStages; ++s)
      p.ownedStages[0].push_back(s);
    finalize(p, stageTasks, edges, topo, scale);
    return p;
  }
  return best;
}

} // namespace pipoly::rt
