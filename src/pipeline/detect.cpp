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
/// factor-th representative (and always the last).
pb::IntTupleSet coarsenReps(const pb::IntTupleSet& reps, std::size_t factor) {
  if (factor <= 1 || reps.size() <= 1)
    return reps;
  const std::size_t a = reps.arity(), n = reps.size();
  const pb::Value* rows = reps.rowData().data();
  pb::RowBuffer kept;
  for (std::size_t i = factor - 1; i < n; i += factor)
    pb::rows::append(kept, rows + i * a, a);
  if (n % factor != 0)
    pb::rows::append(kept, rows + (n - 1) * a, a);
  return pb::IntTupleSet::fromSortedRows(reps.space(), std::move(kept));
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
  pb::IntMap map;               // T_{S,T}
  pb::IntTupleSet srcBoundaries; // V_S's boundaries: Dom(T)
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
      r.srcBoundaries =
          pipelineMap(rel, s, t, /*allowNonInjective=*/true).domain();
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
  r.srcBoundaries = tMap.domain();
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

/// Representatives of the contiguous uniform split of a non-empty domain
/// into min(k, |domain|) blocks (block b ends at row n·(b+1)/k) — the
/// blocking a pure accumulation nest gets once its reduction
/// self-dependences are relaxed and no incoming pipeline map subdivides
/// it.
pb::IntTupleSet uniformReps(const pb::IntTupleSet& domain, std::size_t k) {
  const std::size_t n = domain.size(), a = domain.arity();
  k = std::max<std::size_t>(1, std::min(k, n));
  const pb::Value* rows = domain.rowData().data();
  pb::RowBuffer reps;
  reps.reserve(k * a);
  for (std::size_t b = 1; b <= k; ++b)
    pb::rows::append(reps, rows + (n * b / k - 1) * a, a);
  return pb::IntTupleSet::fromSortedRows(domain.space(), std::move(reps));
}

/// Algorithm 1, lines 8-10, for one statement: integrate its blocking
/// boundaries (eq. 3). Statements not involved in any pipeline map become
/// a single block (their whole domain as one task); statements with an
/// empty iteration domain get zero blocks and no dependencies.
void computeStatementInfo(const scop::AccessRelations& rel, std::size_t s,
                          const std::vector<pb::IntTupleSet>& boundaries,
                          const DetectOptions& options,
                          const ReductionInfo& reduction,
                          StatementPipelineInfo& st) {
  const scop::Scop& scop = rel.scop();
  const scop::Statement& stmt = scop.statement(s);
  const pb::IntTupleSet& domain = stmt.domain();
  if (options.relaxSameNestOrdering || reduction.relaxed)
    st.chainOrdering = false;
  if (!st.chainOrdering)
    st.selfEdges = pb::IntMap(stmt.space(), stmt.space());
  if (domain.empty()) {
    st.blockReps = domain;
    st.blockStarts = {0};
    return;
  }
  if (options.integration == DetectOptions::Integration::FirstMapOnly &&
      boundaries.size() > 1)
    st.blockReps = blockReps(domain, {boundaries.front()});
  else
    st.blockReps = blockReps(domain, boundaries);
  st.blockReps = coarsenReps(st.blockReps, options.coarsening);
  if (reduction.relaxed && st.blockReps.size() <= 1 && domain.size() > 1) {
    // A pure accumulation nest: nothing upstream subdivides it, and with
    // the reduction self-dependences relaxed its iterations are freely
    // re-partitionable — split into parallel partial blocks directly.
    st.blockReps = uniformReps(domain, options.reductionBlocks);
  }
  st.blockStarts = blockStarts(domain, st.blockReps);

  if (reduction.relaxed) {
    // Every self-dependence of a classified reduction statement is
    // carried by its single (reduction) write, and all of those are
    // relaxed: the partial blocks are mutually independent. The combine
    // step the lowering appends restores the serial semantics.
    st.reduction = reduction;
    return;
  }

  if (options.relaxSameNestOrdering) {
    // §7 combination with per-nest parallelism: compute the exact
    // cross-block self-dependence edges. Blocks with no incoming edge
    // from another block may run as soon as their cross-statement
    // requirements are met.
    const std::size_t a = domain.arity();
    const pb::Value* reps = st.blockReps.rowData().data();
    pb::RowBuffer edges;
    std::size_t from = 0, to = 0;
    for (const pb::PairView dep : scop::selfDependences(rel, s).pairs()) {
      from = blockOf(st.blockReps, dep.first.data(), from);
      to = blockOf(st.blockReps, dep.second.data(), to);
      if (from == to)
        continue;
      pb::rows::append(edges, reps + to * a, a);
      pb::rows::append(edges, reps + from * a, a);
    }
    st.selfEdges =
        pb::IntMap::fromRows(stmt.space(), stmt.space(), std::move(edges));
  }
}

/// Algorithm 1, lines 11-12, for one pipeline map: the in-dependency map
/// (eq. 4). Reads the per-statement blocks computed by
/// computeStatementInfo (all of them must be complete) and returns the
/// requirement to attach to the target statement.
InRequirement computeInRequirement(const scop::AccessRelations& rel,
                                   const PipelineMapEntry& entry,
                                   const PipelineInfo& info,
                                   const DetectOptions& options) {
  const scop::Scop& scop = rel.scop();
  const scop::Statement& tgt = scop.statement(entry.tgtIdx);
  const scop::Statement& src = scop.statement(entry.srcIdx);
  const StatementPipelineInfo& tgtInfo = info.statements[entry.tgtIdx];
  const StatementPipelineInfo& srcInfo = info.statements[entry.srcIdx];
  const std::size_t tgtA = tgt.depth(), srcA = src.depth();
  const pb::Value* tgtReps = tgtInfo.blockReps.rowData().data();
  const pb::Value* srcReps = srcInfo.blockReps.rowData().data();
  pb::RowBuffer rows;
  const auto emit = [&](std::size_t tgtBlock, std::size_t srcBlock) {
    PIPOLY_CHECK(srcBlock < srcInfo.blockReps.size());
    pb::rows::append(rows, tgtReps + tgtBlock * tgtA, tgtA);
    pb::rows::append(rows, srcReps + srcBlock * srcA, srcA);
  };

  // With relaxed same-nest ordering the prefix argument behind eq. 4 no
  // longer holds (finishing a source block does not imply earlier source
  // blocks finished), so the requirements switch to the exact data-flow
  // edges: each target block depends on every source block it actually
  // reads from, derived from P = Wr^-1(Rd).
  if (options.relaxSameNestOrdering) {
    const pb::IntMap p = producerRelation(rel, entry.srcIdx, entry.tgtIdx,
                                          options.allowNonInjectiveWrites);
    std::size_t tgtBlock = 0, srcBlock = 0;
    for (const pb::PairView ji : p.pairs()) {
      tgtBlock = blockOf(tgtInfo.blockReps, ji.first.data(), tgtBlock);
      srcBlock = blockOf(srcInfo.blockReps, ji.second.data(), srcBlock);
      emit(tgtBlock, srcBlock);
    }
    return InRequirement{entry.srcIdx,
                         pb::IntMap::fromRows(tgt.space(), src.space(),
                                              std::move(rows))};
  }

  // Q = T^-1 ( Y_T ( Range(Σ_T) ) ): every block of the target needs the
  // last source block that enables it. Y_T names the first boundary of
  // Range(T) lexge the block's representative; T^-1 is single-valued (T
  // is injective), so its rows, sorted by target, walk Range(T) in order
  // beside the target's representatives.
  const pb::IntMap tInv = entry.map.inverse();
  const pb::Value* inv = tInv.rowData().data();
  const std::size_t invW = tgtA + srcA, numInv = tInv.size();
  const pb::Value* lastSource = entry.map.rowData().data() +
                                (entry.map.size() - 1) * invW;
  std::size_t k = 0, srcBlock = 0;
  for (std::size_t b = 0; b < tgtInfo.blockReps.size(); ++b) {
    k = pb::rows::gallopLowerBound(inv, numInv, invW, k, tgtReps + b * tgtA,
                                   tgtA);
    // A block past every boundary of Range(T) maps past the last pipeline
    // boundary. With the integrated Σ of eq. 3 such a block provably
    // contains no reader of this source, but under coarsening or
    // FirstMapOnly it may; require the whole pipelined source prefix
    // (conservative, and a no-op when the block truly reads nothing).
    const pb::Value* required = k < numInv ? inv + k * invW + tgtA : lastSource;
    // The required iteration is a blocking boundary of the source map, so
    // the source block holding it produces it (with a coarsened Σ it lands
    // on the enclosing, later block — still safe).
    srcBlock = blockOf(srcInfo.blockReps, required, srcBlock);
    emit(b, srcBlock);
  }
  // The block reps arrive in order, so the rows are written sorted.
  return InRequirement{entry.srcIdx,
                       pb::IntMap::fromSortedRows(tgt.space(), src.space(),
                                                  std::move(rows))};
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
  // Every phase builds each (statement, array) relation once; the table
  // is handed on in info.relations.
  scop::AccessRelations relations(scop);

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
  // boundaries for every candidate pair (s < t), t outer and s inner.
  std::vector<std::vector<pb::IntTupleSet>> boundaries(n);
  // Per target, the relaxed-reduction sources it depends on (combine
  // edges), in candidate order.
  std::vector<std::vector<std::size_t>> combineSources(n);
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
          boundaries[s].push_back(std::move(r.srcBoundaries));
        }
        if (!r.hasMap)
          continue;
        boundaries[s].push_back(std::move(r.srcBoundaries));
        boundaries[t].push_back(r.map.range());
        info.maps.push_back(PipelineMapEntry{s, t, std::move(r.map)});
      }
    }
    info.stats.candidatePairs = static_cast<std::size_t>(pairIdx);
  }

  // Phase 2 (lines 8-10): integrate blocking boundaries (eq. 3) per
  // statement.
  {
    trace::Span phase("detect.integrate");
    for (std::size_t s = 0; s < n; ++s) {
      trace::Span unit("detect.statement", static_cast<std::int64_t>(s));
      computeStatementInfo(relations, s, boundaries[s], options,
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
      InRequirement req =
          computeInRequirement(relations, info.maps[i], info, options);
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

  info.relations = std::move(relations).release();
  return info;
}

} // namespace pipoly::pipeline
