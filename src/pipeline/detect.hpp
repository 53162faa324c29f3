#pragma once

// §4 / Algorithm 1 — the full pipeline detection pass. For a SCoP of
// consecutive loop nests it computes, per statement S:
//
//   Σ_S      the integrated pipeline blocking (eq. 3): every iteration's
//            block representative. Each block is one atomic task. Kept in
//            interval form (blocking.hpp): the representatives and each
//            block's start row in the lexicographically sorted domain.
//   Q_S      the array of in-dependency maps (eq. 4): block representative
//            of S -> last required block representative of a source
//            statement, one map per pipeline map that targets S.
//
// plus the list of pairwise pipeline maps T_{S,T} the blocks derive from.
// The out-dependency Q_S^out is the identity on the representatives: a
// finished block publishes its own representative.
//
// Every candidate pair takes one route ladder: a pair of symbolic.hpp's
// separable shape gets its map in closed form; any other pair falls back,
// on its own, to the dependence test and then the per-point symbolic fast
// path or the explicit Wr^-1(Rd) composition. DetectStats records which
// rung handled each pair.

#include "pipeline/blocking.hpp"
#include "pipeline/pipeline_map.hpp"
#include "pipeline/reduction.hpp"
#include "pipeline/symbolic.hpp"
#include "scop/scop.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pipoly::pipeline {

struct PipelineMapEntry {
  std::size_t srcIdx;
  std::size_t tgtIdx;
  pb::IntMap map; // T_{S,T}: source space -> target space
};

/// One in-dependency family of a statement: which block of `srcStmtIdx`
/// must have finished before a given block of this statement may run.
struct InRequirement {
  std::size_t srcStmtIdx;
  /// { block rep of this statement -> required block rep(s) of the
  /// source }. Partial: block reps with no requirement from this source
  /// (e.g. the remainder block) are absent. Single-valued under the
  /// paper's chain ordering (eq. 4); multi-valued (exact data-flow
  /// edges) under relaxed same-nest ordering.
  pb::IntMap map;
  /// True when the source is a relaxed reduction statement: the
  /// dependence is on the source's *combine* step (which restores the
  /// array value from the partial accumulators), not on any individual
  /// block. `map` then relates every block rep of this statement to the
  /// lexmax source block rep — the lowering rewrites it to the combine
  /// task's tag.
  bool viaCombine = false;
};

struct StatementPipelineInfo {
  /// Range(Σ_S): all block representatives, in execution order. A block's
  /// representative is its last iteration.
  pb::IntTupleSet blockReps;
  /// Σ_S as row intervals of the statement's sorted domain: block b owns
  /// the domain rows [blockStarts[b], blockStarts[b + 1]). One entry per
  /// block plus a final |D_S|, so an empty domain gives {0}.
  std::vector<std::uint32_t> blockStarts;
  /// Q_S: one entry per pipeline map targeting this statement.
  std::vector<InRequirement> inRequirements;
  /// Same-nest ordering. When `chainOrdering` is true (the paper's
  /// semantics, Fig. 8 funcCount protocol), blocks of this statement run
  /// strictly in order. Otherwise (the §7 combination with per-nest
  /// parallelism) only the edges of `selfEdges` — the cross-block
  /// self-dependences — are enforced, and independent blocks of the same
  /// nest may run concurrently.
  bool chainOrdering = true;
  /// { block rep -> earlier block rep it must wait for }; may be
  /// multi-valued. Only meaningful when chainOrdering is false.
  pb::IntMap selfEdges;
  /// Reduction relaxation (reduction.hpp). When `relaxed`, the
  /// statement's self-dependences on the reduction array were dropped
  /// from the blocking construction: its blocks are independent partial
  /// accumulations (chainOrdering is forced off with empty selfEdges),
  /// and the lowering appends one combine task that folds the partial
  /// accumulators back into the array in deterministic block order.
  ReductionInfo reduction;
};

/// Per-run route accounting for the candidate pairs of Algorithm 1,
/// lines 1-7, tallied in candidate order. The semantic fields of
/// PipelineInfo are the same whichever route handled a pair; the stats
/// record which route produced them.
struct DetectStats {
  /// Ordered candidate pairs (s < t) examined.
  std::size_t candidatePairs = 0;
  /// Pairs the closed-form parametric route fully handled (including
  /// pairs it proved independent: an empty readers rectangle).
  std::size_t parametricPairs = 0;
  /// Pairs the per-point symbolic fast path handled after a parametric
  /// fallback.
  std::size_t symbolicPairs = 0;
  /// Pairs that needed the explicit Wr^-1(Rd) composition.
  std::size_t explicitPairs = 0;
  /// Pairs with no dependence, discovered on the fallback route (the
  /// parametric route counts its independent pairs as parametric).
  std::size_t independentPairs = 0;
  /// Dependent pairs whose source is a relaxed reduction statement: no
  /// pipeline map, the target depends on the source's combine step.
  std::size_t reductionPairs = 0;
  /// Statements the reduction classifier relaxed (reductionMode=auto).
  std::size_t reductionStatements = 0;
  /// Parametric-route rejections by reason, indexed by ParametricFallback
  /// (NoSharedArray rejections are vacuous pairs, not fallbacks, but are
  /// tallied here too).
  std::array<std::size_t, static_cast<std::size_t>(ParametricFallback::kCount)>
      fallbackByReason{};

  /// Pairs the parametric route rejected and handed to the symbolic or
  /// explicit route (excludes vacuous no-shared-array pairs).
  std::size_t fallbackPairs() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < fallbackByReason.size(); ++i)
      if (i != static_cast<std::size_t>(ParametricFallback::None) &&
          i != static_cast<std::size_t>(ParametricFallback::NoSharedArray))
        n += fallbackByReason[i];
    return n;
  }
  std::size_t fallbacks(ParametricFallback f) const {
    return fallbackByReason[static_cast<std::size_t>(f)];
  }
};

struct PipelineInfo {
  std::vector<PipelineMapEntry> maps;
  std::vector<StatementPipelineInfo> statements; // indexed by statement
  /// Route accounting of the detectPipeline call that produced this info:
  /// how many statement pairs each rung of the route ladder decided, and
  /// why the separable closed form refused the rest.
  DetectStats stats;
  /// The access relations detection built, handed on so that
  /// analyzeCommunication builds only the ones detection never needed.
  /// Immutable and shared by every copy of the info; it lives as long as
  /// the last copy. Null for results assembled elsewhere.
  std::shared_ptr<const scop::BuiltRelations> relations;

  bool hasPipeline() const { return !maps.empty(); }
  /// Total number of blocks (= tasks) across all statements.
  std::size_t totalBlocks() const;
};

struct DetectOptions {
  /// How the per-pair blocking maps are combined into Σ_S.
  enum class Integration {
    /// Eq. 3: lexmin of the union of all blocking maps (the paper's
    /// optimal blocks, §4.2).
    LexminUnion,
    /// Ablation: keep only the blocking of the first pipeline map each
    /// statement participates in (what a naive pairwise scheme would do).
    FirstMapOnly,
  };
  Integration integration = Integration::LexminUnion;

  /// Task-granularity knob (§7 future work): merge `coarsening`
  /// consecutive blocks into one task. 1 = the paper's blocks.
  std::size_t coarsening = 1;

  /// §7 relaxation: accept sources whose write relations overwrite
  /// locations (P then relates reads to every writer, so requirements
  /// cover the last write).
  bool allowNonInjectiveWrites = false;

  /// §7 combination with per-nest parallelism: replace the unconditional
  /// same-nest block chain by the exact cross-block self-dependence
  /// edges, letting independent blocks of one nest run concurrently
  /// (e.g. the fully parallel nmm nests, or nests whose dependences do
  /// not cross block boundaries).
  bool relaxSameNestOrdering = false;

  /// Reduction dependence relaxation (reduction.hpp).
  enum class ReductionMode {
    /// Bit-identical legacy: reduction statements keep their
    /// self-dependences and serialize (a non-injective accumulation
    /// write still needs allowNonInjectiveWrites, exactly as before).
    Off,
    /// The default: classify every statement; relaxed reductions drop
    /// their reduction self-dependences from the blocking construction,
    /// split into parallel partial blocks and gain a combine step.
    /// Non-reduction statements behave exactly as under Off.
    Auto,
  };
  ReductionMode reductionMode = ReductionMode::Auto;

  /// Target number of partial-reduction blocks for a relaxed statement
  /// that no incoming pipeline map subdivides (a pure accumulation nest):
  /// its domain is split into min(reductionBlocks, |domain|) contiguous
  /// chunks.
  std::size_t reductionBlocks = 8;
};

/// Algorithm 1. Computes pipeline maps for every dependent statement pair,
/// derives per-statement blocking, and attaches dependency relations.
PipelineInfo detectPipeline(const scop::Scop& scop,
                            const DetectOptions& options = {});

} // namespace pipoly::pipeline
