#pragma once

// Test-only oracle for Σ_S as boundary rows and for task iterations as
// [begin, end) row ranges: Algorithm 1, lines 8-12, and the lowering as
// they ran when blocks were explicit maps. Σ_S is the eq.-3 lexmin of the
// per-pair blocking maps V_S / Y_T (coarsening, FirstMapOnly and the
// uniform reduction split applied to the map), every block lists its
// iterations through Σ_S^-1 (one imagesOf per block), and the eq.-4
// requirements and relaxed self edges come from singleImageOf lookups on
// Σ. Only the pipeline maps and the reduction classification are read
// from detectPipeline's result. Producer ids come from the (idx, tag)
// resolution of resolve_oracle.hpp.

#include "legacy_blocking.hpp"
#include "resolve_oracle.hpp"

#include "codegen/task_program.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/pipeline_map.hpp"
#include "presburger_ops.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace pipoly::testing {

/// One task with its iterations as an explicit list.
struct LegacyTask {
  std::size_t stmtIdx = 0;
  codegen::TaskKind kind = codegen::TaskKind::Block;
  pb::Tuple blockRep;
  std::vector<pb::Tuple> iterations;
  codegen::TaskDep out{0, 0};
  std::vector<codegen::TaskDep> in;
};

struct LegacyProgram {
  std::vector<LegacyTask> tasks;
  std::size_t numStatements = 0;
  std::size_t writeNum = 0;

  /// TaskProgram::toString's format.
  std::string toString() const {
    std::ostringstream os;
    os << "task program: " << tasks.size() << " tasks, " << numStatements
       << " statements, writeNum=" << writeNum << '\n';
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const LegacyTask& t = tasks[i];
      os << "  task " << i << ": stmt " << t.stmtIdx
         << (t.kind == codegen::TaskKind::ReductionCombine ? " combine "
                                                           : " block ")
         << t.blockRep << " (" << t.iterations.size() << " its) out=("
         << t.out.idx << ',' << t.out.tag << ')';
      for (const codegen::TaskDep& d : t.in)
        os << " in=(" << d.idx << ',' << d.tag
           << (d.selfOrdering ? ",self" : "") << ')';
      os << '\n';
    }
    return os.str();
  }
};

namespace legacy_lowering_detail {

inline pb::IntMap coarsenBlocking(const pb::IntTupleSet& domain,
                                  const pb::IntMap& blocking,
                                  std::size_t factor) {
  if (factor <= 1)
    return blocking;
  const pb::IntTupleSet reps = blocking.range();
  std::vector<pb::Tuple> kept;
  const auto& points = reps.points();
  for (std::size_t i = factor - 1; i < points.size(); i += factor)
    kept.push_back(points[i]);
  if (kept.empty() || kept.back() != points.back())
    kept.push_back(points.back());
  return blockingMap(domain, pb::IntTupleSet(domain.space(), std::move(kept)));
}

inline pb::IntMap uniformBlocking(const pb::IntTupleSet& domain,
                                  std::size_t k) {
  const std::size_t n = domain.size();
  k = std::max<std::size_t>(1, std::min(k, n));
  const auto& points = domain.points();
  std::vector<pb::Tuple> boundaries;
  for (std::size_t b = 1; b <= k; ++b)
    boundaries.push_back(points[n * b / k - 1]);
  return blockingMap(domain,
                     pb::IntTupleSet(domain.space(), std::move(boundaries)));
}

/// Whether target t waits for the combine step of relaxed reduction s.
inline bool combineEdge(const scop::AccessRelations& rel,
                        const pipeline::PipelineInfo& info, std::size_t s,
                        std::size_t t) {
  return info.statements[s].reduction.relaxed && scop::dependsOn(rel, t, s);
}

} // namespace legacy_lowering_detail

/// Σ_S of every statement as an explicit map, built from the per-pair
/// blocking maps in detectPipeline's candidate order.
inline std::vector<pb::IntMap>
legacySigmas(const scop::Scop& scop, const pipeline::PipelineInfo& info,
             const pipeline::DetectOptions& options) {
  using namespace legacy_lowering_detail;
  const std::size_t n = scop.numStatements();
  const scop::AccessRelations rel(scop);
  std::vector<std::vector<pb::IntMap>> maps(n);
  std::size_t m = 0;
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t s = 0; s < t; ++s) {
      const pb::IntTupleSet& srcDomain = scop.statement(s).domain();
      if (combineEdge(rel, info, s, t))
        maps[s].push_back(sourceBlockingMap(
            srcDomain, pipeline::pipelineMap(rel, s, t, true)));
      if (m < info.maps.size() && info.maps[m].srcIdx == s &&
          info.maps[m].tgtIdx == t) {
        maps[s].push_back(sourceBlockingMap(srcDomain, info.maps[m].map));
        maps[t].push_back(
            targetBlockingMap(scop.statement(t).domain(), info.maps[m].map));
        ++m;
      }
    }
  PIPOLY_CHECK(m == info.maps.size());

  std::vector<pb::IntMap> sigmas;
  for (std::size_t s = 0; s < n; ++s) {
    const pb::IntTupleSet& domain = scop.statement(s).domain();
    if (domain.empty()) {
      sigmas.emplace_back(domain.space(), domain.space());
      continue;
    }
    pb::IntMap sigma;
    if (maps[s].empty())
      sigma = blockingMap(domain, pb::IntTupleSet(domain.space()));
    else if (options.integration ==
             pipeline::DetectOptions::Integration::LexminUnion)
      sigma = integrateBlockingMaps(maps[s]);
    else
      sigma = maps[s].front();
    sigma = coarsenBlocking(domain, sigma, options.coarsening);
    if (info.statements[s].reduction.relaxed && sigma.range().size() <= 1 &&
        domain.size() > 1)
      sigma = uniformBlocking(domain, options.reductionBlocks);
    sigmas.push_back(std::move(sigma));
  }
  return sigmas;
}

/// The whole explicit lowering: Σ_S from legacySigmas, the eq.-4
/// requirements, the relaxed self edges and the task list of
/// codegen::lowerToTasks with every block's iterations listed.
inline LegacyProgram legacyLower(const scop::Scop& scop,
                                 const pipeline::PipelineInfo& info,
                                 const pipeline::DetectOptions& options) {
  const std::size_t n = scop.numStatements();
  const scop::AccessRelations rel(scop);
  const std::vector<pb::IntMap> sigmas = legacySigmas(scop, info, options);
  std::vector<pb::IntTupleSet> reps;
  std::vector<pb::IntMap> expansions;
  for (const pb::IntMap& sigma : sigmas) {
    reps.push_back(sigma.range());
    expansions.push_back(sigma.inverse());
  }

  // Eq. 4 per pipeline map (exact data-flow edges under relaxed same-nest
  // ordering), then the combine edges.
  std::vector<std::vector<std::pair<std::size_t, pb::IntMap>>> reqs(n);
  for (const pipeline::PipelineMapEntry& e : info.maps) {
    std::vector<pb::IntMap::Pair> pairs;
    if (options.relaxSameNestOrdering) {
      const pb::IntMap p = pipeline::producerRelation(
          rel, e.srcIdx, e.tgtIdx, options.allowNonInjectiveWrites);
      for (const auto& [j, i] : p.pairs())
        pairs.emplace_back(*singleImageOf(sigmas[e.tgtIdx], j),
                           *singleImageOf(sigmas[e.srcIdx], i));
    } else {
      const pb::IntMap y =
          targetBlockingMap(scop.statement(e.tgtIdx).domain(), e.map);
      const pb::IntMap tInv = e.map.inverse();
      const pb::Tuple lastSource = e.map.domain().lexmax();
      for (const pb::Tuple& rep : reps[e.tgtIdx].points()) {
        const pb::Tuple boundary = *singleImageOf(y, rep);
        const pb::Tuple required =
            singleImageOf(tInv, boundary).value_or(lastSource);
        pairs.emplace_back(rep, *singleImageOf(sigmas[e.srcIdx], required));
      }
    }
    reqs[e.tgtIdx].emplace_back(
        e.srcIdx, pb::IntMap(scop.statement(e.tgtIdx).space(),
                             scop.statement(e.srcIdx).space(),
                             std::move(pairs)));
  }
  std::vector<std::vector<std::size_t>> combineSources(n);
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t s = 0; s < t; ++s)
      if (legacy_lowering_detail::combineEdge(rel, info, s, t) &&
          !reps[s].empty())
        combineSources[t].push_back(s);

  std::vector<bool> isSource(n, false);
  for (std::size_t t = 0; t < n; ++t) {
    for (const auto& r : reqs[t])
      isSource[r.first] = true;
    for (std::size_t s : combineSources[t])
      isSource[s] = true;
  }

  LegacyProgram prog;
  prog.numStatements = n;
  prog.writeNum = static_cast<std::size_t>(
      std::count(isSource.begin(), isSource.end(), true));
  for (std::size_t s = 0; s < n; ++s) {
    const pipeline::StatementPipelineInfo& st = info.statements[s];
    const bool chain = !(options.relaxSameNestOrdering || st.reduction.relaxed);
    pb::IntMap selfEdges(scop.statement(s).space(), scop.statement(s).space());
    if (options.relaxSameNestOrdering && !st.reduction.relaxed &&
        !scop.statement(s).domain().empty()) {
      std::vector<pb::IntMap::Pair> edges;
      for (const auto& [i, j] : scop::selfDependences(rel, s).pairs()) {
        pb::Tuple from = *singleImageOf(sigmas[s], i);
        pb::Tuple to = *singleImageOf(sigmas[s], j);
        if (from != to)
          edges.emplace_back(std::move(to), std::move(from));
      }
      selfEdges = pb::IntMap(scop.statement(s).space(),
                             scop.statement(s).space(), std::move(edges));
    }
    const int slot = static_cast<int>(s);
    std::optional<codegen::TaskDep> prevOut;
    for (const pb::Tuple& rep : reps[s].points()) {
      LegacyTask task;
      task.stmtIdx = s;
      task.blockRep = rep;
      task.iterations = imagesOf(expansions[s], rep);
      task.out = codegen::TaskDep{slot, codegen::linearizeBlockVector(rep)};
      for (const auto& [src, map] : reqs[s])
        for (const pb::Tuple& image : imagesOf(map, rep))
          task.in.push_back(codegen::TaskDep{
              static_cast<int>(src), codegen::linearizeBlockVector(image)});
      for (std::size_t src : combineSources[s])
        task.in.push_back(codegen::combineDep(n, src));
      if (chain) {
        if (prevOut)
          task.in.push_back(
              codegen::TaskDep{prevOut->idx, prevOut->tag, true});
      } else {
        for (const pb::Tuple& required : imagesOf(selfEdges, rep))
          task.in.push_back(codegen::TaskDep{
              slot, codegen::linearizeBlockVector(required), true});
      }
      std::sort(task.in.begin(), task.in.end(),
                [](const codegen::TaskDep& a, const codegen::TaskDep& b) {
                  return std::tie(a.idx, a.tag, b.selfOrdering) <
                         std::tie(b.idx, b.tag, a.selfOrdering);
                });
      task.in.erase(
          std::unique(task.in.begin(), task.in.end(),
                      [](const codegen::TaskDep& a, const codegen::TaskDep& b) {
                        return a.idx == b.idx && a.tag == b.tag;
                      }),
          task.in.end());
      prevOut = task.out;
      prog.tasks.push_back(std::move(task));
    }
    if (st.reduction.relaxed && !reps[s].empty()) {
      LegacyTask task;
      task.stmtIdx = s;
      task.kind = codegen::TaskKind::ReductionCombine;
      const std::size_t arity = reps[s].arity() + 1;
      std::size_t k = 0;
      for (const pb::Tuple& rep : reps[s].points()) {
        std::vector<pb::Value> fold(arity, 0);
        fold[0] = static_cast<pb::Value>(k++);
        task.iterations.emplace_back(fold.data(), arity);
        task.in.push_back(
            codegen::TaskDep{slot, codegen::linearizeBlockVector(rep)});
      }
      task.blockRep = task.iterations.back();
      task.out = codegen::combineDep(n, s);
      prog.tasks.push_back(std::move(task));
    }
  }
  fillProducers(prog.tasks);
  return prog;
}

} // namespace pipoly::testing
