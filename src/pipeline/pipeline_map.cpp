#include "pipeline/pipeline_map.hpp"

#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::pipeline {

pb::IntMap producerRelation(const scop::AccessRelations& rel,
                            std::size_t srcIdx, std::size_t tgtIdx,
                            bool allowNonInjective) {
  const scop::Scop& scop = rel.scop();
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  pb::IntMap p(tgt.space(), src.space());
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    const pb::IntMap& wr = rel.write(srcIdx, arrayId);
    const pb::IntMap& rd = rel.read(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    PIPOLY_CHECK_MSG(allowNonInjective || wr.isInjective(),
                     "statement " + src.name() + " overwrites array " +
                         scop.array(arrayId).name +
                         " (the paper assumes injective write relations; "
                         "set allowNonInjectiveWrites to relax)");
    p = p.unite(wr.inverse().compose(rd));
  }
  return p;
}

pb::IntMap lastRequirementMap(const pb::IntMap& producer) {
  // H(j) = lexmax over { P(j') : j' lexle j, j' in Dom(P) }. The pairs of
  // lexmaxPerDomain(P) are sorted by target iteration, so H is a running
  // lexmax over that order.
  pb::IntMap perIteration = producer.lexmaxPerDomain();
  std::vector<pb::IntMap::Pair> pairs;
  pairs.reserve(perIteration.size());
  bool first = true;
  pb::Tuple running;
  for (const auto& [j, i] : perIteration.pairs()) {
    if (first || i > running) {
      running = i;
      first = false;
    }
    pairs.emplace_back(j, running);
  }
  return pb::IntMap(producer.domainSpace(), producer.rangeSpace(),
                    std::move(pairs));
}

pb::IntMap pipelineMap(const scop::AccessRelations& rel, std::size_t srcIdx,
                       std::size_t tgtIdx, bool allowNonInjective) {
  pb::IntMap p = producerRelation(rel, srcIdx, tgtIdx, allowNonInjective);
  if (p.empty())
    return pb::IntMap(rel.scop().statement(srcIdx).space(),
                      rel.scop().statement(tgtIdx).space());
  pb::IntMap h = lastRequirementMap(p);
  return h.inverse().lexmaxPerDomain();
}

pb::IntMap pipelineMapNaive(const scop::AccessRelations& rel,
                            std::size_t srcIdx, std::size_t tgtIdx,
                            bool allowNonInjective) {
  pb::IntMap p = producerRelation(rel, srcIdx, tgtIdx, allowNonInjective);
  if (p.empty())
    return pb::IntMap(rel.scop().statement(srcIdx).space(),
                      rel.scop().statement(tgtIdx).space());
  // D' maps each member of Dom(P) to all members lexle it.
  pb::IntMap dPrime = pb::IntMap::lexGeContains(p.domain());
  pb::IntMap h = p.compose(dPrime).lexmaxPerDomain();
  return h.inverse().lexmaxPerDomain();
}

} // namespace pipoly::pipeline
