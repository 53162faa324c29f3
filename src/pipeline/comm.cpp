#include "pipeline/comm.hpp"

#include "pipeline/symbolic.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace pipoly::pipeline {

namespace {

/// Bytes per array element (EdgeComm::totalBytes) and the floor of the
/// sized ring capacity (EdgeComm::capacitySlots).
constexpr std::uint64_t kElementBytes = 8;
constexpr std::uint32_t kMinCapacitySlots = 2;

// Floor/ceil division with a positive divisor (pb::Value is signed).
pb::Value floorDiv(pb::Value a, pb::Value b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
pb::Value ceilDiv(pb::Value a, pb::Value b) {
  return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/// The closed-form edge volume for a separable pair: the consumer reads
/// subscript c_d*j_d + o_d over its rectangle, the producer writes the
/// identity over its rectangle, and c_d >= 1 makes the read injective —
/// so the distinct shared elements are exactly the j kept by clipping the
/// target box against the preimage of the source box, a per-dimension
/// interval count (mirrors param_detect: no set is materialized).
std::uint64_t separableVolume(const SeparablePairShape& shape) {
  std::uint64_t total = 1;
  for (std::size_t d = 0; d < shape.coeffs.size(); ++d) {
    const pb::Value c = shape.coeffs[d];
    const pb::Value o = shape.offsets[d];
    const pb::Value lo = std::max(shape.tgtBox[d].lower,
                                  ceilDiv(shape.srcBox[d].lower - o, c));
    const pb::Value hi = std::min(shape.tgtBox[d].upper,
                                  floorDiv(shape.srcBox[d].upper - o, c));
    if (hi < lo)
      return 0;
    total *= static_cast<std::uint64_t>(hi - lo + 1);
  }
  return total;
}

/// Sorted intersection of two sorted id vectors (arraysWrittenBy /
/// arraysReadBy results are ascending).
std::vector<std::size_t> sharedArrays(std::vector<std::size_t> written,
                                      std::vector<std::size_t> read) {
  std::sort(written.begin(), written.end());
  std::sort(read.begin(), read.end());
  std::vector<std::size_t> out;
  std::set_intersection(written.begin(), written.end(), read.begin(),
                        read.end(), std::back_inserter(out));
  return out;
}

/// Ordinal of a block representative within a statement's ordered rep
/// list (blockReps rows are sorted, which is execution order).
std::size_t repOrdinal(const std::vector<pb::Tuple>& reps,
                       const pb::Tuple& rep) {
  const auto it = std::lower_bound(reps.begin(), reps.end(), rep);
  PIPOLY_CHECK_MSG(it != reps.end() && *it == rep,
                   "block representative not found in its statement");
  return static_cast<std::size_t>(it - reps.begin());
}

std::vector<pb::Tuple> materializeReps(const pb::IntTupleSet& reps) {
  std::vector<pb::Tuple> out;
  out.reserve(reps.size());
  for (const pb::Tuple& rep : reps.points())
    out.push_back(rep);
  return out;
}

/// Per-edge scheduling data kept alongside the public EdgeComm while the
/// lockstep occupancy simulation runs.
struct EdgeWork {
  EdgeComm comm;
  /// Tokens (producer blocks, by ordinal) consumer block k needs before
  /// it may run; 0 = no requirement from this edge.
  std::vector<std::uint64_t> reqTokens;
  /// Prefix sums of per-producer-block consumed bytes: prefixBytes[p] =
  /// bytes of blocks [0, p).
  std::vector<std::uint64_t> prefixBytes;
  std::uint64_t popped = 0; // running max of started consumers' reqTokens
  std::uint32_t peakTokens = 0;
  std::uint64_t peakBytes = 0;
};

} // namespace

CommInfo analyzeCommunication(const scop::Scop& scop,
                              const PipelineInfo& info) {
  trace::Span span("comm.analyze");
  CommInfo result;
  if (info.maps.empty())
    return result;

  const std::size_t numStmts = scop.numStatements();
  std::vector<std::vector<pb::Tuple>> reps(numStmts);
  for (std::size_t s = 0; s < numStmts; ++s)
    if (s < info.statements.size())
      reps[s] = materializeReps(info.statements[s].blockReps);

  // Phase A: per-edge volumes, per-block consumed bytes, and the token
  // requirement of every consumer block.
  std::vector<EdgeWork> work;
  work.reserve(info.maps.size());
  std::vector<std::size_t> inReqSeen(numStmts, 0); // inRequirements cursor
  for (std::size_t m = 0; m < info.maps.size(); ++m) {
    const PipelineMapEntry& entry = info.maps[m];
    const std::size_t src = entry.srcIdx;
    const std::size_t tgt = entry.tgtIdx;
    EdgeWork w;
    w.comm.srcIdx = src;
    w.comm.tgtIdx = tgt;
    w.comm.mapIdx = m;

    const std::vector<std::size_t> shared =
        sharedArrays(scop.arraysWrittenBy(src), scop.arraysReadBy(tgt));

    // Volume: the separable closed form when the pair qualifies,
    // otherwise the explicit range intersection per shared array.
    const SeparablePairShape shape = classifySeparablePair(scop, src, tgt);
    const bool parametric = shape.ok() && !shape.vacuous;
    if (parametric)
      w.comm.elements = separableVolume(shape);
    // The per-array relations are needed for the per-block pass anyway.
    std::vector<pb::IntMap> wrRels, rdInvRels;
    std::vector<pb::IntTupleSet> rdRanges;
    for (const std::size_t a : shared) {
      pb::IntMap wr = scop.writeRelation(src, a);
      pb::IntMap rd = scop.readRelation(tgt, a);
      pb::IntTupleSet rdRange = rd.range();
      if (!parametric)
        w.comm.elements += wr.range().intersect(rdRange).size();
      wrRels.push_back(std::move(wr));
      rdInvRels.push_back(rd.inverse());
      rdRanges.push_back(std::move(rdRange));
    }
    w.comm.parametric = parametric;
    w.comm.totalBytes = w.comm.elements * kElementBytes;

    // Per producer block: consumed bytes and (implicitly, through the
    // requirement tokens below) the consumer blocks that read it.
    const std::vector<pb::Tuple>& srcReps = reps[src];
    const StatementPipelineInfo& srcInfo = info.statements[src];
    w.prefixBytes.assign(srcReps.size() + 1, 0);
    std::vector<pb::Tuple> elems;
    for (std::size_t p = 0; p < srcReps.size(); ++p) {
      const std::vector<pb::Tuple> members =
          srcInfo.expansion.imagesOf(srcReps[p]);
      std::uint64_t blockElems = 0;
      for (std::size_t ai = 0; ai < shared.size(); ++ai) {
        elems.clear();
        for (const pb::Tuple& it : members)
          for (const pb::Tuple& elem : wrRels[ai].imagesOf(it))
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
    // edge (inRequirements are appended in pipeline-map order, one per
    // map targeting the statement).
    const StatementPipelineInfo& tgtInfo = info.statements[tgt];
    const std::size_t reqIdx = inReqSeen[tgt]++;
    PIPOLY_CHECK_MSG(reqIdx < tgtInfo.inRequirements.size() &&
                         tgtInfo.inRequirements[reqIdx].srcStmtIdx == src,
                     "in-requirement order does not match the pipeline maps");
    const pb::IntMap& req = tgtInfo.inRequirements[reqIdx].map;
    const std::vector<pb::Tuple>& tgtReps = reps[tgt];
    w.reqTokens.assign(tgtReps.size(), 0);
    for (std::size_t k = 0; k < tgtReps.size(); ++k) {
      std::uint64_t need = 0;
      for (const pb::Tuple& srcRep : req.imagesOf(tgtReps[k]))
        need = std::max(need, static_cast<std::uint64_t>(
                                  repOrdinal(srcReps, srcRep) + 1));
      w.reqTokens[k] = need;
    }
    work.push_back(std::move(w));
  }

  // Phase B: the unthrottled ASAP lockstep schedule. Every stage finishes
  // at most one block per round, starting its next block as soon as each
  // in-edge's producer had completed the required tokens by the end of
  // the previous round. Channel occupancy peaks under this schedule give
  // the capacity that never throttles it.
  std::vector<std::size_t> completed(numStmts, 0), totals(numStmts, 0);
  for (std::size_t s = 0; s < numStmts; ++s)
    totals[s] = reps[s].size();
  // Statements with blocks but outside every edge still terminate the
  // loop; they just advance unconstrained.
  bool done = false;
  std::vector<std::size_t> advancing;
  while (!done) {
    advancing.clear();
    for (std::size_t s = 0; s < numStmts; ++s) {
      if (completed[s] >= totals[s])
        continue;
      bool ready = true;
      for (const EdgeWork& w : work)
        if (w.comm.tgtIdx == s &&
            static_cast<std::uint64_t>(completed[w.comm.srcIdx]) <
                w.reqTokens[completed[s]]) {
          ready = false;
          break;
        }
      if (ready)
        advancing.push_back(s);
    }
    done = true;
    for (std::size_t s = 0; s < numStmts; ++s)
      if (completed[s] < totals[s])
        done = false;
    if (done)
      break;
    PIPOLY_CHECK_MSG(!advancing.empty(),
                     "lockstep schedule stuck: cyclic block requirements");
    // Consumers starting a block pop its required tokens first...
    for (EdgeWork& w : work) {
      const std::size_t tgt = w.comm.tgtIdx;
      if (completed[tgt] < totals[tgt] &&
          std::find(advancing.begin(), advancing.end(), tgt) !=
              advancing.end())
        w.popped = std::max(w.popped, w.reqTokens[completed[tgt]]);
    }
    for (const std::size_t s : advancing)
      ++completed[s];
    // ... then producers finishing this round push theirs; measure the
    // in-flight peak after the pushes.
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

  result.edges.reserve(work.size());
  for (EdgeWork& w : work) {
    w.comm.peakInFlightTokens = w.peakTokens;
    w.comm.peakInFlightBytes = w.peakBytes;
    w.comm.capacitySlots = std::max(kMinCapacitySlots, w.peakTokens);
    result.edges.push_back(w.comm);
  }
  return result;
}

std::uint64_t commVolumeNaive(const scop::Scop& scop, std::size_t srcIdx,
                              std::size_t tgtIdx) {
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

std::vector<rt::StageEdge>
CommInfo::stageEdges(const std::vector<std::size_t>& stmtOfStage) const {
  std::vector<std::size_t> stageOf;
  for (std::size_t s = 0; s < stmtOfStage.size(); ++s) {
    if (stmtOfStage[s] >= stageOf.size())
      stageOf.resize(stmtOfStage[s] + 1, SIZE_MAX);
    stageOf[stmtOfStage[s]] = s;
  }
  std::vector<rt::StageEdge> out;
  out.reserve(edges.size());
  for (const EdgeComm& e : edges) {
    if (e.srcIdx >= stageOf.size() || e.tgtIdx >= stageOf.size())
      continue;
    const std::size_t src = stageOf[e.srcIdx];
    const std::size_t tgt = stageOf[e.tgtIdx];
    if (src == SIZE_MAX || tgt == SIZE_MAX)
      continue;
    out.push_back({src, tgt, std::max<std::uint64_t>(e.totalBytes, 1)});
  }
  return out;
}

} // namespace pipoly::pipeline
