#pragma once

// Test-only references for pipeline::analyzeCommunication.
//
// legacyAnalyzeCommunication is the per-point formulation the sweep-based
// pass replaced: every producer block's members come from Σ^-1 one block
// at a time, every member's written elements from the write relation one
// iteration at a time, each filtered against the read range, and every
// consumer block's requirement tokens from per-block image lookups in the
// eq.-4 map. Every volume is the explicit range intersection (the
// separable closed form is only recorded in `parametric`), so the oracle
// also checks the closed form. analyzeCommunication must reproduce every
// EdgeComm field bit for bit.
//
// commVolumeNaive counts an edge's volume by brute force through the raw
// affine subscripts, sharing no relation machinery with either pass.

#include "legacy_blocking.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/symbolic.hpp"
#include "presburger_ops.hpp"
#include "scop/scop.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

namespace pipoly::testing {

namespace legacy_comm_detail {

/// Ordinal of a block representative within a statement's ordered rep
/// list (blockReps rows are sorted, which is execution order).
inline std::size_t repOrdinal(const std::vector<pb::Tuple>& reps,
                              const pb::Tuple& rep) {
  const auto it = std::lower_bound(reps.begin(), reps.end(), rep);
  PIPOLY_CHECK_MSG(it != reps.end() && *it == rep,
                   "block representative not found in its statement");
  return static_cast<std::size_t>(it - reps.begin());
}

/// Per-edge scheduling data kept alongside the public EdgeComm while the
/// lockstep occupancy simulation runs.
struct EdgeWork {
  pipeline::EdgeComm comm;
  std::vector<std::uint64_t> reqTokens;
  std::vector<std::uint64_t> prefixBytes;
  std::uint64_t popped = 0;
  std::uint32_t peakTokens = 0;
  std::uint64_t peakBytes = 0;
};

} // namespace legacy_comm_detail

inline pipeline::CommInfo
legacyAnalyzeCommunication(const scop::Scop& scop,
                           const pipeline::PipelineInfo& info) {
  using legacy_comm_detail::EdgeWork;
  using legacy_comm_detail::repOrdinal;
  constexpr std::uint64_t kElementBytes = 8;
  constexpr std::uint32_t kMinCapacitySlots = 2;

  pipeline::CommInfo result;
  if (info.maps.empty())
    return result;

  const std::size_t numStmts = scop.numStatements();
  std::vector<std::vector<pb::Tuple>> reps(numStmts);
  for (std::size_t s = 0; s < numStmts && s < info.statements.size(); ++s)
    for (const pb::Tuple& rep : info.statements[s].blockReps.points())
      reps[s].push_back(rep);

  // Phase A: per-edge volumes, per-block consumed bytes, and the token
  // requirement of every consumer block.
  std::vector<EdgeWork> work;
  std::vector<std::size_t> inReqSeen(numStmts, 0);
  for (std::size_t m = 0; m < info.maps.size(); ++m) {
    const std::size_t src = info.maps[m].srcIdx;
    const std::size_t tgt = info.maps[m].tgtIdx;
    EdgeWork w;
    w.comm.srcIdx = src;
    w.comm.tgtIdx = tgt;
    w.comm.mapIdx = m;

    std::vector<std::size_t> written = scop.arraysWrittenBy(src);
    std::vector<std::size_t> read = scop.arraysReadBy(tgt);
    std::vector<std::size_t> shared;
    std::set_intersection(written.begin(), written.end(), read.begin(),
                          read.end(), std::back_inserter(shared));

    const pipeline::SeparablePairShape shape =
        pipeline::classifySeparablePair(scop, src, tgt);
    w.comm.parametric = shape.ok() && !shape.vacuous;
    std::vector<pb::IntMap> wrRels;
    std::vector<pb::IntTupleSet> rdRanges;
    for (const std::size_t a : shared) {
      pb::IntMap wr = scop.writeRelation(src, a);
      pb::IntTupleSet rdRange = scop.readRelation(tgt, a).range();
      w.comm.elements += wr.range().intersect(rdRange).size();
      wrRels.push_back(std::move(wr));
      rdRanges.push_back(std::move(rdRange));
    }
    w.comm.totalBytes = w.comm.elements * kElementBytes;

    // Per producer block: the distinct shared elements its members write.
    const std::vector<pb::Tuple>& srcReps = reps[src];
    const pb::IntMap srcExpansion = expansionMap(scop, info, src);
    w.prefixBytes.assign(srcReps.size() + 1, 0);
    std::vector<pb::Tuple> elems;
    for (std::size_t p = 0; p < srcReps.size(); ++p) {
      const std::vector<pb::Tuple> members =
          imagesOf(srcExpansion, srcReps[p]);
      std::uint64_t blockElems = 0;
      for (std::size_t ai = 0; ai < shared.size(); ++ai) {
        elems.clear();
        for (const pb::Tuple& it : members)
          for (const pb::Tuple& elem : imagesOf(wrRels[ai], it))
            if (rdRanges[ai].contains(elem))
              elems.push_back(elem);
        std::sort(elems.begin(), elems.end());
        elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
        blockElems += elems.size();
      }
      const std::uint64_t bytes = blockElems * kElementBytes;
      w.comm.maxBlockBytes = std::max(w.comm.maxBlockBytes, bytes);
      w.prefixBytes[p + 1] = w.prefixBytes[p] + bytes;
    }

    // Requirement tokens per consumer block, from the eq.-4 map of this
    // edge (one inRequirement per map targeting the statement, in order).
    const pipeline::StatementPipelineInfo& tgtInfo = info.statements[tgt];
    const std::size_t reqIdx = inReqSeen[tgt]++;
    PIPOLY_CHECK(reqIdx < tgtInfo.inRequirements.size() &&
                 tgtInfo.inRequirements[reqIdx].srcStmtIdx == src);
    const pb::IntMap& req = tgtInfo.inRequirements[reqIdx].map;
    const std::vector<pb::Tuple>& tgtReps = reps[tgt];
    w.reqTokens.assign(tgtReps.size(), 0);
    for (std::size_t k = 0; k < tgtReps.size(); ++k)
      for (const pb::Tuple& srcRep : imagesOf(req, tgtReps[k]))
        w.reqTokens[k] =
            std::max<std::uint64_t>(w.reqTokens[k],
                                    repOrdinal(srcReps, srcRep) + 1);
    work.push_back(std::move(w));
  }

  // Phase B: the unthrottled ASAP lockstep schedule (one block per stage
  // per round), measuring each channel's occupancy after the pushes.
  std::vector<std::size_t> completed(numStmts, 0), totals(numStmts, 0);
  for (std::size_t s = 0; s < numStmts; ++s)
    totals[s] = reps[s].size();
  std::vector<std::size_t> advancing;
  while (true) {
    advancing.clear();
    bool done = true;
    for (std::size_t s = 0; s < numStmts; ++s) {
      if (completed[s] >= totals[s])
        continue;
      done = false;
      bool ready = true;
      for (const EdgeWork& w : work)
        if (w.comm.tgtIdx == s &&
            static_cast<std::uint64_t>(completed[w.comm.srcIdx]) <
                w.reqTokens[completed[s]])
          ready = false;
      if (ready)
        advancing.push_back(s);
    }
    if (done)
      break;
    PIPOLY_CHECK_MSG(!advancing.empty(),
                     "lockstep schedule stuck: cyclic block requirements");
    for (EdgeWork& w : work) {
      const std::size_t tgt = w.comm.tgtIdx;
      if (completed[tgt] < totals[tgt] &&
          std::find(advancing.begin(), advancing.end(), tgt) !=
              advancing.end())
        w.popped = std::max(w.popped, w.reqTokens[completed[tgt]]);
    }
    for (const std::size_t s : advancing)
      ++completed[s];
    for (EdgeWork& w : work) {
      const std::uint64_t pushed = completed[w.comm.srcIdx];
      const std::uint64_t popped = std::min<std::uint64_t>(w.popped, pushed);
      w.peakTokens = std::max(w.peakTokens,
                              static_cast<std::uint32_t>(pushed - popped));
      w.peakBytes =
          std::max(w.peakBytes,
                   w.prefixBytes[static_cast<std::size_t>(pushed)] -
                       w.prefixBytes[static_cast<std::size_t>(popped)]);
    }
  }

  for (EdgeWork& w : work) {
    w.comm.peakInFlightTokens = w.peakTokens;
    w.comm.peakInFlightBytes = w.peakBytes;
    w.comm.capacitySlots = std::max(kMinCapacitySlots, w.peakTokens);
    result.edges.push_back(w.comm);
  }
  return result;
}

inline std::uint64_t commVolumeNaive(const scop::Scop& scop,
                                     std::size_t srcIdx, std::size_t tgtIdx) {
  // Enumerate every accessed element through the raw affine subscripts —
  // no relation machinery shared with the analyzed path.
  const auto elementsOf = [&scop](std::size_t stmtIdx,
                                  const std::vector<scop::Access>& accesses,
                                  std::size_t arrayId) {
    std::vector<pb::Tuple> out;
    const scop::Statement& stmt = scop.statements()[stmtIdx];
    for (const scop::Access& access : accesses) {
      if (access.arrayId != arrayId)
        continue;
      for (const pb::Tuple& point : stmt.domain().points()) {
        // Odometer over the auxiliary dimensions (multi-element reads).
        std::vector<pb::Value> ext(point.size() + access.numAuxDims());
        for (std::size_t d = 0; d < point.size(); ++d)
          ext[d] = point[d];
        std::vector<pb::Value> aux(access.numAuxDims(), 0);
        bool more = true;
        while (more) {
          for (std::size_t d = 0; d < aux.size(); ++d)
            ext[point.size() + d] = aux[d];
          out.push_back(access.subscripts.evaluate(pb::Tuple(ext)));
          more = false;
          for (std::size_t d = aux.size(); d-- > 0;) {
            if (++aux[d] < access.auxExtents[d]) {
              more = true;
              break;
            }
            aux[d] = 0;
          }
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  std::uint64_t total = 0;
  for (std::size_t a = 0; a < scop.arrays().size(); ++a) {
    const std::vector<pb::Tuple> written =
        elementsOf(srcIdx, scop.statements()[srcIdx].writes(), a);
    if (written.empty())
      continue;
    const std::vector<pb::Tuple> read =
        elementsOf(tgtIdx, scop.statements()[tgtIdx].reads(), a);
    std::vector<pb::Tuple> both;
    std::set_intersection(written.begin(), written.end(), read.begin(),
                          read.end(), std::back_inserter(both));
    total += both.size();
  }
  return total;
}

} // namespace pipoly::testing
