#pragma once

// Stage placement for the channel execution route: partition the
// pipeline's stages (statement order = pipeline order, data flows
// forward) into contiguous per-worker ranges.
//
// placeStages is a comm-weighted contiguous DP. Its primary objective is
// load balance (the max per-worker task count), its secondary the
// channel bytes severed by the chosen cuts, compared lexicographically;
// among equal partitions the earliest cuts win.

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
  /// empty for the workers past the stage count).
  std::vector<std::vector<std::size_t>> ownedStages;
  /// Per stage, its owning worker.
  std::vector<std::size_t> workerOfStage;

  /// Diagnostics of the chosen partition.
  std::uint64_t maxLoad = 0;          // max per-worker task count
  std::uint64_t crossWorkerBytes = 0; // bytes on edges spanning workers
};

/// Places stages 0..S-1 on `workers` workers (see file comment);
/// workers == 0 is treated as 1. The stages go to min(workers, S)
/// non-empty contiguous ranges, and workers past the stage count own
/// nothing (their ownedStages entry is empty).
Placement placeStages(const std::vector<std::size_t>& stageTasks,
                      unsigned workers, const std::vector<StageEdge>& edges);

} // namespace pipoly::rt
