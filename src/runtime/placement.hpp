#pragma once

// Stage placement for the channel execution route: partition the
// pipeline's stages (statement order = pipeline order, data flows
// forward) into contiguous per-worker ranges.
//
// One partitioner, placeStages, places the stages on a topology (uma for
// a machine without one):
//
//   * On a uniform topology (single domain, or all classes equal) every
//     core pair is equidistant, and the result is the PR 8 comm-weighted
//     contiguous DP: primary objective is load balance (max per-worker
//     task count), secondary the channel bytes severed by the chosen
//     cuts, lexicographically.
//
//   * Otherwise workers live in rt::Topology domains, and the objective
//     trades load balance against the *class-weighted* bytes the
//     placement moves across workers:
//
//         minimize  maxWorkerLoad + commCost * scale
//         commCost  = sum over cross-worker edges of
//                     bytes * classCost(domain(src), domain(tgt))
//         scale     = totalLoad / totalEdgeBytes
//
//     The scale fixes the load-vs-bytes exchange rate at 1 (a whole
//     program's traffic weighs as much as its whole load). Domain ranges
//     are contiguous in stage space (workers dealt out domain-major),
//     chosen by exhaustive enumeration of the domain cut vector — stage
//     counts are statement counts, tiny — with the PR 8 DP splitting
//     each domain's range among its own workers.

#include "runtime/topology.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipoly::rt {

/// One weighted stage-graph edge: producer stage `src` feeds consumer
/// stage `tgt` with `bytes` of channel traffic per streamed batch (1 when
/// no communication analysis sized the edge — edge counting).
struct StageEdge {
  std::size_t src = 0;
  std::size_t tgt = 0;
  std::uint64_t bytes = 1;
};

struct Placement {
  /// Per worker, the owned stages (each a contiguous ascending range;
  /// possibly empty when a domain is starved).
  std::vector<std::vector<std::size_t>> ownedStages;
  /// Per stage: owning worker and that worker's domain.
  std::vector<std::size_t> workerOfStage;
  std::vector<unsigned> domainOfStage;

  /// Diagnostics of the chosen partition.
  std::uint64_t maxLoad = 0;          // max per-worker task count
  std::uint64_t crossWorkerBytes = 0; // bytes on edges spanning workers
  std::uint64_t crossDomainBytes = 0; // subset spanning domains
  double commCost = 0.0;   // class-weighted cross-worker bytes
  /// Scalarized objective of the winner (maxLoad alone on a uniform
  /// topology, where the DP ranks cuts lexicographically instead).
  double objective = 0.0;
};

/// Places stages 0..S-1 on `workers` workers of `topology` (see file
/// comment). The topology is re-spread over `workers` when its slot count
/// differs; workers == 0 is treated as 1. On a uniform topology the
/// stages go to min(workers, S) non-empty contiguous ranges and workers
/// past the stage count own nothing (their ownedStages entry is empty).
/// domainOfStage and the domain diagnostics always price the chosen
/// cuts on the topology.
Placement placeStages(const std::vector<std::size_t>& stageTasks,
                      unsigned workers, const std::vector<StageEdge>& edges,
                      const Topology& topology);

} // namespace pipoly::rt
