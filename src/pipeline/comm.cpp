#include "pipeline/comm.hpp"

#include "pipeline/symbolic.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace pipoly::pipeline {

namespace {

/// Bytes per array element (EdgeComm::totalBytes) and the floor of the
/// sized ring capacity (EdgeComm::capacitySlots).
constexpr std::uint64_t kElementBytes = 8;
constexpr std::uint32_t kMinCapacitySlots = 2;

/// The closed-form edge volume for a separable pair: the consumer reads
/// subscript c_d*j_d + o_d over its rectangle, the producer writes the
/// identity over its rectangle, and c_d >= 1 makes the read injective —
/// so the distinct shared elements are exactly the readers rectangle's
/// points (no set is materialized).
std::uint64_t separableVolume(const std::vector<pb::DimBounds>& box) {
  std::uint64_t total = 1;
  for (const pb::DimBounds& b : box)
    total *= static_cast<std::uint64_t>(b.upper - b.lower + 1);
  return total;
}

/// addBlockElements for a separable pair, in closed form: producer block
/// p owns the source rows [starts[p], starts[p + 1]) of its rectangle and
/// feeds the consumed elements among them, the difference of two
/// consumedBefore counts (all `elements` lie before the end).
void addSeparableBlockElements(const SeparablePairShape& shape,
                               const std::vector<pb::DimBounds>& box,
                               std::uint64_t elements,
                               const pb::IntTupleSet& domain,
                               const std::vector<std::uint32_t>& starts,
                               std::vector<std::uint64_t>& blockElems) {
  const std::size_t depth = domain.arity();
  const pb::Value* rows = domain.rowData().data();
  const auto before = [&](std::uint32_t row) {
    return row < domain.size()
               ? consumedBefore(shape, box, rows + std::size_t{row} * depth)
               : elements;
  };
  std::uint64_t prev = before(starts.front());
  for (std::size_t p = 0; p < blockElems.size(); ++p) {
    const std::uint64_t next = before(starts[p + 1]);
    blockElems[p] += next - prev;
    prev = next;
  }
}

/// Adds to blockElems[p] the distinct elements of `rdRange` that the
/// iterations of producer block p write through `wr`. One sweep over the
/// write relation's sorted rows: a galloping cursor over the producer's
/// block representatives names each iteration's block (the first
/// representative lexge it), a binary search keeps the elements the
/// consumer reads, and one sort of the (block ordinal, element) rows
/// removes duplicates before counting.
void addBlockElements(const pb::IntMap& wr, const pb::IntTupleSet& rdRange,
                      const pb::IntTupleSet& reps,
                      std::vector<std::uint64_t>& blockElems) {
  const std::size_t depth = wr.domainSpace().arity();
  const std::size_t rank = rdRange.arity();
  const std::size_t wrW = depth + rank, keptW = 1 + rank;
  const pb::Value* wrRows = wr.rowData().data();
  const pb::Value* repRows = reps.rowData().data();
  const pb::Value* read = rdRange.rowData().data();
  const std::size_t numReps = reps.size(), numRead = rdRange.size();
  pb::RowBuffer kept;
  std::size_t block = 0;
  for (std::size_t r = 0; r < wr.size(); ++r) {
    const pb::Value* it = wrRows + r * wrW;
    const pb::Value* elem = it + depth;
    const std::size_t e =
        pb::rows::lowerBound(read, numRead, rank, 0, elem, rank);
    if (e == numRead || !pb::rows::equal(read + e * rank, elem, rank))
      continue;
    block = pb::rows::gallopLowerBound(repRows, numReps, depth, block, it,
                                       depth);
    if (block == numReps)
      break; // past the last block: no later row is in a block either
    kept.push_back(static_cast<pb::Value>(block));
    pb::rows::append(kept, elem, rank);
  }
  pb::rows::sortUnique(kept, keptW);
  for (std::size_t i = 0; i < kept.size(); i += keptW)
    ++blockElems[static_cast<std::size_t>(kept[i])];
}

/// The consumed elements of one shared array whose source writes are all
/// the identity: element e is the output of source iteration e, so each
/// element the target reads marks one row of the source's sorted domain.
/// The target's reads are evaluated point by point, building no relation.
/// Returns the number of marked rows.
std::uint64_t markReadRows(const scop::Scop& scop, std::size_t src,
                           std::size_t tgt, std::size_t arrayId,
                           std::vector<char>& marked) {
  const pb::IntTupleSet& domain = scop.statement(src).domain();
  const std::size_t depth = domain.arity(), n = domain.size();
  const pb::Value* rows = domain.rowData().data();
  marked.assign(n, 0);
  std::uint64_t count = 0;
  for (const scop::Access& r : scop.statement(tgt).reads()) {
    if (r.arrayId != arrayId)
      continue;
    // Consecutive elements mostly ascend, so the search gallops on from
    // the previous hit and starts over only when an element goes back.
    std::size_t k = 0;
    scop.forEachAccessPoint(
        tgt, r, [&](const pb::Value*, const pb::Value* elem) {
          if (k == n || pb::rows::less(elem, rows + k * depth, depth))
            k = 0;
          k = pb::rows::gallopLowerBound(rows, n, depth, k, elem, depth);
          if (k < n && marked[k] == 0 &&
              pb::rows::equal(rows + k * depth, elem, depth)) {
            marked[k] = 1;
            ++count;
          }
        });
  }
  return count;
}

/// Adds to blockElems[p] the marked rows in [starts[p], starts[p + 1]).
void addMarkedBlockElements(const std::vector<char>& marked,
                            const std::vector<std::uint32_t>& starts,
                            std::vector<std::uint64_t>& blockElems) {
  for (std::size_t p = 0; p < blockElems.size(); ++p)
    for (std::uint32_t k = starts[p]; k < starts[p + 1]; ++k)
      blockElems[p] += static_cast<std::uint64_t>(marked[k]);
}

/// Tokens (producer blocks, by ordinal) each consumer block needs before
/// it may run, from the eq.-4 map's rows (target rep, source rep): the
/// highest required source ordinal + 1, or 0 without a requirement.
std::vector<std::uint64_t> requirementTokens(const pb::IntMap& req,
                                             const pb::IntTupleSet& tgtReps,
                                             const pb::IntTupleSet& srcReps) {
  const std::size_t tgtW = tgtReps.arity(), w = tgtW + srcReps.arity();
  const pb::Value* reqRows = req.rowData().data();
  const pb::Value* tgt = tgtReps.rowData().data();
  const std::size_t numTgt = tgtReps.size();
  std::vector<std::uint64_t> need(numTgt, 0);
  std::size_t k = 0, src = 0;
  for (std::size_t r = 0; r < req.size(); ++r) {
    const pb::Value* row = reqRows + r * w;
    k = pb::rows::gallopLowerBound(tgt, numTgt, tgtW, k, row, tgtW);
    if (k == numTgt)
      break;
    if (pb::rows::equal(tgt + k * tgtW, row, tgtW)) {
      src = blockOf(srcReps, row + tgtW, src);
      need[k] = std::max<std::uint64_t>(need[k], src + 1);
    }
  }
  return need;
}

/// Per-edge scheduling data kept alongside the public EdgeComm while the
/// lockstep occupancy simulation runs.
struct EdgeWork {
  EdgeComm comm;
  /// What the per-block pass reads, held from the volume pass: for a
  /// parametric edge its shape and readers box (unset when no read hits
  /// a written element); otherwise, per shared array, the source rows the
  /// target reads (identity writes) or the write relation and read range.
  SeparablePairShape shape;
  std::optional<std::vector<pb::DimBounds>> readers;
  std::vector<std::vector<char>> readRows;
  std::vector<const pb::IntMap*> wrRels; // into the call's relation table
  std::vector<pb::IntTupleSet> rdRanges;
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
  std::vector<EdgeWork> work(info.maps.size());
  // Detection's relations, plus whatever volumes need that it never built.
  const scop::AccessRelations relations(scop, info.relations);

  // Per-edge volumes: the separable closed form when the pair qualifies;
  // otherwise, per shared array, the marked source rows of an identity
  // write or the explicit range intersection. Only the last builds
  // relations.
  {
    trace::Span phase("comm.volume");
    for (std::size_t m = 0; m < info.maps.size(); ++m) {
      EdgeWork& w = work[m];
      const std::size_t src = info.maps[m].srcIdx;
      const std::size_t tgt = info.maps[m].tgtIdx;
      w.comm.srcIdx = src;
      w.comm.tgtIdx = tgt;
      w.comm.mapIdx = m;
      w.shape = classifySeparablePair(scop, src, tgt);
      w.comm.parametric = w.shape.ok() && !w.shape.vacuous;
      if (w.comm.parametric) {
        w.readers = readersBox(w.shape);
        if (w.readers)
          w.comm.elements = separableVolume(*w.readers);
      } else {
        for (const std::size_t a : scop.arraysWrittenBy(src)) {
          if (writesIdentity(scop, src, a)) {
            std::vector<char> marked;
            if (const std::uint64_t n = markReadRows(scop, src, tgt, a, marked)) {
              w.comm.elements += n;
              w.readRows.push_back(std::move(marked));
            }
            continue;
          }
          // The relations are needed for the per-block pass too.
          pb::IntTupleSet rdRange = relations.read(tgt, a).range();
          if (rdRange.empty())
            continue; // the target reads nothing of it
          const pb::IntMap& wr = relations.write(src, a);
          w.comm.elements += wr.range().intersect(rdRange).size();
          w.wrRels.push_back(&wr);
          w.rdRanges.push_back(std::move(rdRange));
        }
      }
      w.comm.totalBytes = w.comm.elements * kElementBytes;
    }
  }

  // Per producer block the consumed bytes, and per consumer block the
  // requirement tokens from the eq.-4 map of the edge (inRequirements are
  // appended in pipeline-map order, one per map targeting the statement).
  {
    trace::Span phase("comm.blocks");
    std::vector<std::size_t> inReqSeen(numStmts, 0); // inRequirements cursor
    for (EdgeWork& w : work) {
      const StatementPipelineInfo& srcInfo = info.statements[w.comm.srcIdx];
      std::vector<std::uint64_t> blockElems(srcInfo.blockReps.size(), 0);
      PIPOLY_CHECK_MSG(srcInfo.blockStarts.size() == blockElems.size() + 1,
                       "block starts do not match the block representatives");
      if (w.readers)
        addSeparableBlockElements(w.shape, *w.readers, w.comm.elements,
                                  scop.statement(w.comm.srcIdx).domain(),
                                  srcInfo.blockStarts, blockElems);
      for (const std::vector<char>& marked : w.readRows)
        addMarkedBlockElements(marked, srcInfo.blockStarts, blockElems);
      for (std::size_t ai = 0; ai < w.wrRels.size(); ++ai)
        addBlockElements(*w.wrRels[ai], w.rdRanges[ai], srcInfo.blockReps,
                         blockElems);
      w.readRows.clear();
      w.wrRels.clear();
      w.rdRanges.clear();
      w.prefixBytes.assign(blockElems.size() + 1, 0);
      for (std::size_t p = 0; p < blockElems.size(); ++p) {
        const std::uint64_t bytes = blockElems[p] * kElementBytes;
        w.comm.maxBlockBytes = std::max(w.comm.maxBlockBytes, bytes);
        w.prefixBytes[p + 1] = w.prefixBytes[p] + bytes;
      }

      const StatementPipelineInfo& tgtInfo = info.statements[w.comm.tgtIdx];
      const std::size_t reqIdx = inReqSeen[w.comm.tgtIdx]++;
      PIPOLY_CHECK_MSG(
          reqIdx < tgtInfo.inRequirements.size() &&
              tgtInfo.inRequirements[reqIdx].srcStmtIdx == w.comm.srcIdx,
          "in-requirement order does not match the pipeline maps");
      w.reqTokens = requirementTokens(tgtInfo.inRequirements[reqIdx].map,
                                      tgtInfo.blockReps, srcInfo.blockReps);
    }
  }

  // The unthrottled ASAP lockstep schedule. Every stage finishes at most
  // one block per round, starting its next block as soon as each
  // in-edge's producer had completed the required tokens by the end of
  // the previous round. Channel occupancy peaks under this schedule give
  // the capacity that never throttles it.
  trace::Span phase("comm.lockstep");
  std::vector<std::size_t> completed(numStmts, 0), totals(numStmts, 0);
  for (std::size_t s = 0; s < numStmts && s < info.statements.size(); ++s)
    totals[s] = info.statements[s].blockReps.size();
  // Statements with blocks but outside every edge still terminate the
  // loop; they just advance unconstrained.
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
                w.reqTokens[completed[s]]) {
          ready = false;
          break;
        }
      if (ready)
        advancing.push_back(s);
    }
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

  trace::counter("comm.relations_built",
                 static_cast<double>(relations.relationsBuilt()));
  result.edges.reserve(work.size());
  for (EdgeWork& w : work) {
    w.comm.peakInFlightTokens = w.peakTokens;
    w.comm.peakInFlightBytes = w.peakBytes;
    w.comm.capacitySlots = std::max(kMinCapacitySlots, w.peakTokens);
    result.edges.push_back(w.comm);
  }
  return result;
}

} // namespace pipoly::pipeline
