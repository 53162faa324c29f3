#pragma once

// Test-only reference for Algorithm 1, lines 1-10: every candidate pair
// goes through the dependence test and the explicit Wr^-1(Rd) pipeline
// map, with no closed form and no per-point fast path. detectPipeline's
// route ladder must reproduce its pipeline maps and Σ_S bit for bit.
// legacyInRequirement is the matching reference for lines 11-12 (eq. 4).
//
// The reference models detectPipeline under default DetectOptions on
// SCoPs without relaxed reductions: pairs whose source is a relaxed
// reduction are skipped, and Σ_S is the eq.-3 integration of the
// statement's blocking maps (one block when it has none, an empty map
// over an empty domain), with no coarsening and no uniform reduction
// split.

#include "legacy_blocking.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/pipeline_map.hpp"
#include "pipeline/reduction.hpp"
#include "presburger_ops.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"

#include <optional>
#include <vector>

namespace pipoly::testing {

struct LegacyDetection {
  /// Pipeline maps in detectPipeline's (t outer, s inner) order.
  std::vector<pipeline::PipelineMapEntry> maps;
  /// Σ_S per statement.
  std::vector<pb::IntMap> blocking;
};

inline LegacyDetection legacyDetect(const scop::Scop& scop) {
  const std::size_t n = scop.numStatements();
  LegacyDetection out;
  std::vector<std::vector<pb::IntMap>> blockingMaps(n);
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t s = 0; s < t; ++s) {
      if (pipeline::classifyReduction(scop, s).relaxed ||
          !scop::dependsOn(scop, t, s))
        continue;
      pb::IntMap map = pipeline::pipelineMap(scop, s, t);
      if (map.empty())
        continue;
      blockingMaps[s].push_back(
          sourceBlockingMap(scop.statement(s).domain(), map));
      blockingMaps[t].push_back(
          targetBlockingMap(scop.statement(t).domain(), map));
      out.maps.push_back(pipeline::PipelineMapEntry{s, t, std::move(map)});
    }
  for (std::size_t s = 0; s < n; ++s) {
    const pb::IntTupleSet& domain = scop.statement(s).domain();
    if (domain.empty())
      out.blocking.emplace_back(domain.space(), domain.space());
    else if (blockingMaps[s].empty())
      out.blocking.push_back(
          blockingMap(domain, pb::IntTupleSet(domain.space())));
    else
      out.blocking.push_back(integrateBlockingMaps(blockingMaps[s]));
  }
  return out;
}

/// Eq. 4 for one pipeline map of `info` under chain ordering, one
/// singleImageOf lookup per target block: Y_T names the boundary the
/// block ends at, T^-1 the source iteration that enables it (the last
/// pipelined source iteration for a block past every boundary), and Σ_S
/// the source block that produces it. detectPipeline's requirement for
/// the map must equal it bit for bit.
inline pb::IntMap legacyInRequirement(const scop::Scop& scop,
                                      const pipeline::PipelineMapEntry& entry,
                                      const pipeline::PipelineInfo& info) {
  const scop::Statement& tgt = scop.statement(entry.tgtIdx);
  const pb::IntMap srcSigma = sigmaMap(scop, info, entry.srcIdx);
  const pb::IntMap y = targetBlockingMap(tgt.domain(), entry.map);
  const pb::IntMap tInv = entry.map.inverse();
  const pb::IntTupleSet tRange = entry.map.range();
  const pb::Tuple lastSource = entry.map.domain().lexmax();

  std::vector<pb::IntMap::Pair> pairs;
  const pb::IntTupleSet& reps = info.statements[entry.tgtIdx].blockReps;
  for (const pb::Tuple& rep : reps.points()) {
    const std::optional<pb::Tuple> boundary = singleImageOf(y, rep);
    PIPOLY_CHECK(boundary.has_value());
    const pb::Tuple required = tRange.contains(*boundary)
                                   ? *singleImageOf(tInv, *boundary)
                                   : lastSource;
    const std::optional<pb::Tuple> srcBlock =
        singleImageOf(srcSigma, required);
    PIPOLY_CHECK(srcBlock.has_value());
    pairs.emplace_back(rep, *srcBlock);
  }
  return pb::IntMap(tgt.space(), scop.statement(entry.srcIdx).space(),
                    std::move(pairs));
}

} // namespace pipoly::testing
