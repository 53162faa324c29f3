#include "pipeline/detect.hpp"

#include "pipeline/symbolic.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace pipoly::pipeline {

std::size_t PipelineInfo::totalBlocks() const {
  std::size_t n = 0;
  for (const StatementPipelineInfo& s : statements)
    n += s.blockReps.size();
  return n;
}

namespace {

/// Merges every `factor` consecutive blocks into one by keeping every
/// factor-th boundary (and always the last), then re-deriving the blocking
/// map over the coarsened boundary set.
pb::IntMap coarsenBlocking(const pb::IntTupleSet& domain,
                           const pb::IntMap& blocking, std::size_t factor) {
  if (factor <= 1)
    return blocking;
  const pb::IntTupleSet reps = blocking.range();
  std::vector<pb::Tuple> kept;
  const auto& points = reps.points();
  for (std::size_t i = factor - 1; i < points.size(); i += factor)
    kept.push_back(points[i]);
  if (kept.empty() || kept.back() != points.back())
    kept.push_back(points.back());
  return blockingMap(domain,
                     pb::IntTupleSet(domain.space(), std::move(kept)));
}

/// Which route produced (or dismissed) one candidate pair.
enum class PairRoute : unsigned char {
  Parametric,  // closed-form separable map (possibly empty: independent)
  Symbolic,    // per-point symbolic fast path
  Explicit,    // explicit Wr^-1(Rd) composition
  Independent, // no dependence, discovered on the fallback route
  Reduction,   // source is a relaxed reduction: combine edge, no map
};

/// Result of Algorithm 1, lines 1-7, for one dependent (source, target)
/// candidate pair; `hasMap == false` when the pair yields no pipeline map
/// (no dependence, or an empty map).
struct PairResult {
  pb::IntMap map;         // T_{S,T}
  pb::IntMap srcBlocking; // V_S over the source domain
  pb::IntMap tgtBlocking; // Y_T over the target domain
  bool hasMap = false;
  /// Dependent pair whose source is a relaxed reduction statement: the
  /// target must wait for the source's combine step (which materializes
  /// the reduced values), not for any individual partial block.
  bool combineEdge = false;
  PairRoute route = PairRoute::Independent;
  ParametricFallback fallback = ParametricFallback::None;
};

PairResult computePair(const scop::AccessRelations& rel, std::size_t s,
                       std::size_t t, const DetectOptions& options,
                       const std::vector<ReductionInfo>& reductions) {
  const scop::Scop& scop = rel.scop();
  PairResult r;
  // A relaxed reduction source publishes its array only through its
  // combine step, so the pair contributes no pipeline map (and no
  // blocking): the dependence — if any — is a single combine edge. This
  // check must precede the parametric/fallback ladder, whose map
  // construction would serialize on (or throw over) the non-injective
  // accumulation write.
  if (!reductions.empty() && reductions[s].relaxed) {
    if (scop::dependsOn(rel, t, s)) {
      r.route = PairRoute::Reduction;
      r.combineEdge = true;
      // Keep the legacy source-side blocking: the relaxed statement's
      // partition must *refine* the Off-mode one (its block count only
      // ever grows — the adds-parallelism contract the differential
      // suite checks). The accumulation write is non-injective by
      // definition, so the explicit map is built with the relaxation
      // the Off route would need anyway.
      const pb::IntMap tMap =
          pipelineMap(rel, s, t, /*allowNonInjective=*/true);
      r.srcBlocking = sourceBlockingMap(scop.statement(s).domain(), tMap);
    }
    return r; // else: route stays Independent
  }
  const SeparablePairShape shape = classifySeparablePair(scop, s, t);
  pb::IntMap tMap;
  if (shape.ok()) {
    // Closed form; an empty map *is* the no-dependence verdict, so the
    // explicit dependence test is skipped entirely.
    tMap = separablePipelineMap(scop, s, t, shape);
    r.route = PairRoute::Parametric;
  } else {
    r.fallback = shape.fallback;
    if (!scop::dependsOn(rel, t, s))
      return r; // route stays Independent
    // The symbolic fast path covers identity-write sources (most
    // kernels); the explicit Wr^-1(Rd) composition is the general case.
    if (std::optional<pb::IntMap> fast = trySymbolicPipelineMap(scop, s, t)) {
      tMap = std::move(*fast);
      r.route = PairRoute::Symbolic;
    } else {
      tMap = pipelineMap(rel, s, t, options.allowNonInjectiveWrites);
      r.route = PairRoute::Explicit;
    }
  }
  if (tMap.empty())
    return r;
  r.srcBlocking = sourceBlockingMap(scop.statement(s).domain(), tMap);
  r.tgtBlocking = targetBlockingMap(scop.statement(t).domain(), tMap);
  r.map = std::move(tMap);
  r.hasMap = true;
  return r;
}

/// Trace instants for the per-pair route decisions (static names only).
void traceRoute(const PairResult& r, std::int64_t pairIdx) {
  if (!trace::enabled())
    return;
  switch (r.route) {
  case PairRoute::Parametric:
    trace::instant("detect.route.parametric", pairIdx);
    break;
  case PairRoute::Symbolic:
    trace::instant("detect.route.symbolic", pairIdx);
    break;
  case PairRoute::Explicit:
    trace::instant("detect.route.explicit", pairIdx);
    break;
  case PairRoute::Independent:
    trace::instant("detect.route.independent", pairIdx);
    break;
  case PairRoute::Reduction:
    trace::instant("detect.route.reduction", pairIdx);
    break;
  }
  switch (r.fallback) {
  case ParametricFallback::None:
  case ParametricFallback::NoSharedArray: // vacuous, not a fallback
  case ParametricFallback::kCount:
    break;
  case ParametricFallback::MultipleReads:
    trace::instant("detect.fallback.multiple_reads", pairIdx);
    break;
  case ParametricFallback::NonIdentityWrite:
    trace::instant("detect.fallback.non_identity_write", pairIdx);
    break;
  case ParametricFallback::AuxRead:
    trace::instant("detect.fallback.aux_read", pairIdx);
    break;
  case ParametricFallback::NonSeparableRead:
    trace::instant("detect.fallback.non_separable_read", pairIdx);
    break;
  case ParametricFallback::NonMonotoneRead:
    trace::instant("detect.fallback.non_monotone_read", pairIdx);
    break;
  case ParametricFallback::NonRectangularDomain:
    trace::instant("detect.fallback.non_rectangular_domain", pairIdx);
    break;
  }
}

/// Contiguous uniform split of a non-empty domain into
/// min(k, |domain|) blocks — the blocking a pure accumulation nest gets
/// once its reduction self-dependences are relaxed and no incoming
/// pipeline map subdivides it.
pb::IntMap uniformBlocking(const pb::IntTupleSet& domain, std::size_t k) {
  const std::size_t n = domain.size();
  k = std::max<std::size_t>(1, std::min(k, n));
  const auto& points = domain.points();
  std::vector<pb::Tuple> boundaries;
  boundaries.reserve(k);
  for (std::size_t b = 1; b <= k; ++b)
    boundaries.push_back(points[n * b / k - 1]);
  return blockingMap(domain,
                     pb::IntTupleSet(domain.space(), std::move(boundaries)));
}

/// Algorithm 1, lines 8-10, for one statement: integrate its blocking
/// maps (eq. 3) and build the out-dependency identity. Statements not
/// involved in any pipeline map become a single block (their whole domain
/// as one task); statements with an empty iteration domain get zero
/// blocks and no dependencies.
void computeStatementInfo(const scop::AccessRelations& rel, std::size_t s,
                          const std::vector<pb::IntMap>& maps,
                          const DetectOptions& options,
                          const ReductionInfo& reduction,
                          StatementPipelineInfo& st) {
  const scop::Scop& scop = rel.scop();
  const pb::IntTupleSet& domain = scop.statement(s).domain();
  if (options.relaxSameNestOrdering || reduction.relaxed)
    st.chainOrdering = false;
  if (domain.empty()) {
    st.blocking = pb::IntMap(domain.space(), domain.space());
    st.expansion = st.blocking;
    st.blockReps = domain;
    st.outDependency = st.blocking;
    if (!st.chainOrdering)
      st.selfEdges = pb::IntMap(scop.statement(s).space(),
                                scop.statement(s).space());
    return;
  }
  if (maps.empty()) {
    st.blocking = blockingMap(domain, pb::IntTupleSet(domain.space()));
  } else if (options.integration == DetectOptions::Integration::LexminUnion) {
    st.blocking = integrateBlockingMaps(maps);
  } else {
    st.blocking = maps.front();
  }
  st.blocking = coarsenBlocking(domain, st.blocking, options.coarsening);
  if (reduction.relaxed && st.blocking.range().size() <= 1 &&
      domain.size() > 1) {
    // A pure accumulation nest: nothing upstream subdivides it, and with
    // the reduction self-dependences relaxed its iterations are freely
    // re-partitionable — split into parallel partial blocks directly.
    st.blocking = uniformBlocking(domain, options.reductionBlocks);
  }
  st.expansion = st.blocking.inverse();
  st.blockReps = st.blocking.range();
  st.outDependency = pb::IntMap::identity(st.blockReps);

  if (reduction.relaxed) {
    // Every self-dependence of a classified reduction statement is
    // carried by its single (reduction) write, and all of those are
    // relaxed: the partial blocks are mutually independent. The combine
    // step the lowering appends restores the serial semantics.
    st.reduction = reduction;
    st.selfEdges = pb::IntMap(scop.statement(s).space(),
                              scop.statement(s).space());
    return;
  }

  if (options.relaxSameNestOrdering) {
    // §7 combination with per-nest parallelism: compute the exact
    // cross-block self-dependence edges. Blocks with no incoming edge
    // from another block may run as soon as their cross-statement
    // requirements are met.
    std::vector<pb::IntMap::Pair> edges;
    const pb::IntMap selfDeps = scop::selfDependences(rel, s);
    for (const auto& [i, j] : selfDeps.pairs()) {
      pb::Tuple from = *st.blocking.singleImageOf(i);
      pb::Tuple to = *st.blocking.singleImageOf(j);
      if (from != to)
        edges.emplace_back(std::move(to), std::move(from));
    }
    st.selfEdges = pb::IntMap(scop.statement(s).space(),
                              scop.statement(s).space(), std::move(edges));
  }
}

/// Algorithm 1, lines 11-12, for one pipeline map: the in-dependency map
/// (eq. 4). Reads the per-statement info computed by computeStatementInfo
/// (all of it must be complete) and returns the requirement to attach to
/// the target statement. `tgtBlocking` is the map's Y_T from phase 1.
InRequirement computeInRequirement(const scop::AccessRelations& rel,
                                   const PipelineMapEntry& entry,
                                   const pb::IntMap& tgtBlocking,
                                   const PipelineInfo& info,
                                   const DetectOptions& options) {
  const scop::Scop& scop = rel.scop();
  const scop::Statement& tgt = scop.statement(entry.tgtIdx);
  const StatementPipelineInfo& tgtInfo = info.statements[entry.tgtIdx];
  const StatementPipelineInfo& srcInfo = info.statements[entry.srcIdx];

  // With relaxed same-nest ordering the prefix argument behind eq. 4 no
  // longer holds (finishing a source block does not imply earlier source
  // blocks finished), so the requirements switch to the exact data-flow
  // edges: each target block depends on every source block it actually
  // reads from, derived from P = Wr^-1(Rd).
  if (options.relaxSameNestOrdering) {
    pb::IntMap p = producerRelation(rel, entry.srcIdx, entry.tgtIdx,
                                    options.allowNonInjectiveWrites);
    std::vector<pb::IntMap::Pair> pairs;
    pairs.reserve(p.size());
    for (const auto& [j, i] : p.pairs())
      pairs.emplace_back(*tgtInfo.blocking.singleImageOf(j),
                         *srcInfo.blocking.singleImageOf(i));
    return InRequirement{entry.srcIdx,
                         pb::IntMap(tgt.space(),
                                    scop.statement(entry.srcIdx).space(),
                                    std::move(pairs))};
  }

  // Q = T^-1 ( Y_T ( Range(Σ_T) ) ): every block of the target needs the
  // last source block that enables it.
  const pb::IntMap tInv = entry.map.inverse(); // single-valued (T injective)
  const pb::Tuple lastSource = entry.map.domain().lexmax();
  const auto requiredBlock = [&](const pb::Tuple& rep) {
    std::optional<pb::Tuple> boundary = tgtBlocking.singleImageOf(rep);
    PIPOLY_CHECK_MSG(boundary.has_value(),
                     "target blocking map not total on block reps");
    // A boundary outside Range(T) means the block maps past the last
    // pipeline boundary. With the integrated Σ of eq. 3 such a block
    // provably contains no reader of this source, but under coarsening or
    // FirstMapOnly it may; require the whole pipelined source prefix
    // (conservative, and a no-op when the block truly reads nothing).
    const pb::Tuple required =
        tInv.singleImageOf(*boundary).value_or(lastSource);
    // The required iteration is a blocking boundary of the source map,
    // so mapping through Σ_src names the block that produces it (with a
    // coarsened Σ it lands on the enclosing, later block — still safe).
    std::optional<pb::Tuple> srcBlock =
        srcInfo.blocking.singleImageOf(required);
    PIPOLY_CHECK(srcBlock.has_value());
    return std::move(*srcBlock);
  };
  // The block reps arrive in order, so the rows are written sorted.
  return InRequirement{
      entry.srcIdx,
      pb::IntMap::fromFunction(tgtInfo.blockReps,
                               scop.statement(entry.srcIdx).space(),
                               requiredBlock)};
}

} // namespace

PipelineInfo detectPipeline(const scop::Scop& scop,
                            const DetectOptions& options) {
  // Algorithm-1 phase spans, each holding one span per unit of work. All
  // probes cost one relaxed load when no trace session is active.
  trace::Span detectSpan("detect.pipeline");
  scop::validateProgramModel(scop);
  PIPOLY_CHECK(options.coarsening >= 1);
  const std::size_t n = scop.numStatements();
  PipelineInfo info;
  info.statements.resize(n);
  // Every phase builds each (statement, array) relation once.
  const scop::AccessRelations relations(scop);

  // Reduction pre-pass (reduction.hpp): classify every statement once.
  // Off leaves the vector empty — computePair and computeStatementInfo
  // then behave bit-identically to the legacy route.
  std::vector<ReductionInfo> reductions;
  if (options.reductionMode == DetectOptions::ReductionMode::Auto) {
    trace::Span phase("detect.reductions");
    reductions.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      reductions.push_back(classifyReduction(relations, s));
      if (reductions.back().relaxed) {
        ++info.stats.reductionStatements;
        trace::instant("detect.reduction.relax",
                       static_cast<std::int64_t>(s));
      }
    }
  }
  static const ReductionInfo kNoReduction{};

  // Phase 1 (Algorithm 1, lines 1-7): pipeline maps and per-pair blocking
  // maps for every candidate pair (s < t), t outer and s inner.
  std::vector<std::vector<pb::IntMap>> blockingMaps(n);
  // Per target, the relaxed-reduction sources it depends on (combine
  // edges), in candidate order.
  std::vector<std::vector<std::size_t>> combineSources(n);
  // Y_T of every pipeline map, in map order (eq. 4 reuses it).
  std::vector<pb::IntMap> mapTgtBlockings;
  {
    trace::Span phase("detect.pairs");
    std::int64_t pairIdx = 0;
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t s = 0; s < t; ++s, ++pairIdx) {
        trace::Span unit("detect.pair", pairIdx);
        PairResult r = computePair(relations, s, t, options, reductions);
        switch (r.route) {
        case PairRoute::Parametric:
          ++info.stats.parametricPairs;
          break;
        case PairRoute::Symbolic:
          ++info.stats.symbolicPairs;
          break;
        case PairRoute::Explicit:
          ++info.stats.explicitPairs;
          break;
        case PairRoute::Independent:
          ++info.stats.independentPairs;
          break;
        case PairRoute::Reduction:
          ++info.stats.reductionPairs;
          break;
        }
        if (r.fallback != ParametricFallback::None)
          ++info.stats
                .fallbackByReason[static_cast<std::size_t>(r.fallback)];
        traceRoute(r, pairIdx);
        if (r.combineEdge) {
          combineSources[t].push_back(s);
          if (!r.srcBlocking.empty())
            blockingMaps[s].push_back(std::move(r.srcBlocking));
        }
        if (!r.hasMap)
          continue;
        blockingMaps[s].push_back(std::move(r.srcBlocking));
        blockingMaps[t].push_back(r.tgtBlocking); // shares the rows
        mapTgtBlockings.push_back(std::move(r.tgtBlocking));
        info.maps.push_back(PipelineMapEntry{s, t, std::move(r.map)});
      }
    }
    info.stats.candidatePairs = static_cast<std::size_t>(pairIdx);
  }

  // Phase 2 (lines 8-10): integrate blocking maps (eq. 3) per statement.
  {
    trace::Span phase("detect.integrate");
    for (std::size_t s = 0; s < n; ++s) {
      trace::Span unit("detect.statement", static_cast<std::int64_t>(s));
      computeStatementInfo(relations, s, blockingMaps[s], options,
                           reductions.empty() ? kNoReduction : reductions[s],
                           info.statements[s]);
    }
  }

  // Phase 3 (lines 11-12): in-dependency maps (eq. 4), one per pipeline
  // map, attached to the targets in map order. computeInRequirement reads
  // only the phase-2 fields, never inRequirements, so each result is
  // appended as soon as it is computed.
  {
    trace::Span phase("detect.requirements");
    for (std::size_t i = 0; i < info.maps.size(); ++i) {
      trace::Span unit("detect.requirement", static_cast<std::int64_t>(i));
      InRequirement req = computeInRequirement(relations, info.maps[i],
                                               mapTgtBlockings[i], info,
                                               options);
      info.statements[info.maps[i].tgtIdx].inRequirements.push_back(
          std::move(req));
    }
  }

  // Combine-edge requirements: a target of a relaxed reduction source
  // waits for the source's combine step. Appended after the map-based
  // requirements in (target, source) candidate order; the map relates
  // every target block to the lexmax source block (the lowering rewrites
  // it to the combine task's tag).
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t s : combineSources[t]) {
      const StatementPipelineInfo& srcInfo = info.statements[s];
      if (srcInfo.blockReps.empty())
        continue; // empty source domain: nothing to wait for
      const pb::Tuple lastSrcRep = srcInfo.blockReps.lexmax();
      std::vector<pb::IntMap::Pair> pairs;
      pairs.reserve(info.statements[t].blockReps.size());
      for (const pb::Tuple& rep : info.statements[t].blockReps.points())
        pairs.emplace_back(rep, lastSrcRep);
      info.statements[t].inRequirements.push_back(
          InRequirement{s,
                        pb::IntMap(scop.statement(t).space(),
                                   scop.statement(s).space(),
                                   std::move(pairs)),
                        /*viaCombine=*/true});
    }
  }

  return info;
}

} // namespace pipoly::pipeline
