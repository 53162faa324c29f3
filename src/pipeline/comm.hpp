#pragma once

// Communication analysis for the channel execution route (the ROADMAP's
// "communication-aware blocking" item, after Alias, *Improving
// Communication Patterns in Polyhedral Process Networks*). The blocking
// maps already define producer/consumer block pairs, so for every
// pipeline edge T_{S,T} this pass computes, polyhedrally:
//
//   * the inter-block communication volume — the distinct array elements
//     the producer statement writes that the consumer statement reads
//     (per edge, and the per-producer-block maximum),
//   * the per-edge peak in-flight footprint — the largest number of
//     produced-but-not-yet-consumed block tokens (and their bytes) under
//     the unthrottled ASAP lockstep schedule, where every stage finishes
//     one block per round as soon as its eq.-4 requirements are met, and
//   * from that peak a bounded channel capacity: the minimum SPSC ring
//     size such that the steady-state skew of the blocking maps never
//     blocks that legal schedule.
//
// Separable pairs (symbolic.hpp's closed-form shape) build no relation:
// the element count is the size of the pair's readers box, and each
// producer block's share is the readers lattice counted over the block's
// row interval (consumedBefore). An array the producer writes through
// the identity builds none either: the consumer's reads, evaluated point
// by point, mark the source rows they hit. Any other array takes a
// sorted sweep: one pass over the write relation's rows, blocks found
// through Σ's rows, one sort of the (block, element) rows. The
// requirement tokens come from one walk over the eq.-4 map's rows.
//
// The result feeds the channel tasking backend (ring capacities), the
// simulator's communication cost model, the JSON/DOT exports and the
// pipolyc report.

#include "pipeline/detect.hpp"
#include "scop/scop.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipoly::pipeline {

/// Communication summary of one pipeline edge (one PipelineInfo::maps
/// entry): statement `srcIdx` produces for statement `tgtIdx`.
struct EdgeComm {
  std::size_t srcIdx = 0;
  std::size_t tgtIdx = 0;
  std::size_t mapIdx = 0; // index into PipelineInfo::maps

  /// Distinct array elements written by src and read by tgt.
  std::uint64_t elements = 0;
  /// elements * 8: the kernel suite's arrays hold 64-bit integers
  /// (exact oracle fingerprints).
  std::uint64_t totalBytes = 0;
  /// Largest number of bytes any single producer block feeds the edge.
  std::uint64_t maxBlockBytes = 0;

  /// Peak produced-but-unconsumed block tokens under the ASAP lockstep
  /// schedule, and the live bytes at that peak.
  std::uint32_t peakInFlightTokens = 0;
  std::uint64_t peakInFlightBytes = 0;
  /// max(2, peakInFlightTokens): ring slots such that the ASAP schedule
  /// never stalls on a full channel. The floor of two keeps one block in
  /// flight while the next is produced even on edges with lockstep peak 1.
  std::uint32_t capacitySlots = 2;

  /// The volume came from the separable closed form (no intersection
  /// materialized).
  bool parametric = false;
};

struct CommInfo {
  /// One entry per PipelineInfo::maps entry, in the same order.
  std::vector<EdgeComm> edges;

  std::uint64_t totalBytes() const {
    std::uint64_t sum = 0;
    for (const EdgeComm& e : edges)
      sum += e.totalBytes;
    return sum;
  }

  /// The edge for a statement pair (pipeline maps are unique per pair),
  /// or nullptr.
  const EdgeComm* edge(std::size_t srcIdx, std::size_t tgtIdx) const {
    for (const EdgeComm& e : edges)
      if (e.srcIdx == srcIdx && e.tgtIdx == tgtIdx)
        return &e;
    return nullptr;
  }

  /// Sized ring capacity for a statement pair; `fallback` when the pair
  /// has no analyzed edge (the channel backend's default capacity).
  std::uint32_t capacityFor(std::size_t srcIdx, std::size_t tgtIdx,
                            std::uint32_t fallback) const {
    const EdgeComm* e = edge(srcIdx, tgtIdx);
    return e != nullptr ? e->capacitySlots : fallback;
  }
};

/// Computes the per-edge communication summary for a detection result
/// of this `scop`. Reads the access relations detection built
/// (info.relations) and builds the rest itself; never writes the shared
/// ones, so copies of one info may be analyzed concurrently.
CommInfo analyzeCommunication(const scop::Scop& scop,
                              const PipelineInfo& info);

} // namespace pipoly::pipeline
