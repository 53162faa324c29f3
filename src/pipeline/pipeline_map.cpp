#include "pipeline/pipeline_map.hpp"

#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::pipeline {

namespace {

/// The paper's no-overwrite assumption for one written array.
void checkInjective(const scop::Scop& scop, std::size_t srcIdx,
                    std::size_t arrayId, const pb::IntMap& wr,
                    bool allowNonInjective) {
  PIPOLY_CHECK_MSG(allowNonInjective || wr.isInjective(),
                   "statement " + scop.statement(srcIdx).name() +
                       " overwrites array " + scop.array(arrayId).name +
                       " (the paper assumes injective write relations; "
                       "set allowNonInjectiveWrites to relax)");
}

/// lexmax P(j) per target iteration j, without composing Wr^-1 and Rd
/// (quadratic when an accumulation writes one element from every
/// iteration). Per shared array, one pass over the sorted write rows
/// fills a last-writer table over the written elements, and one pass
/// over the read rows looks each read element up in it.
pb::IntMap lastProducerMap(const scop::AccessRelations& rel,
                           std::size_t srcIdx, std::size_t tgtIdx,
                           bool allowNonInjective) {
  const scop::Scop& scop = rel.scop();
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  const std::size_t srcA = src.space().arity(), tgtA = tgt.space().arity();
  pb::RowBuffer rows; // (j, writer) pairs
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    const pb::IntMap& wr = rel.write(srcIdx, arrayId);
    const pb::IntMap& rd = rel.read(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    checkInjective(scop, srcIdx, arrayId, wr, allowNonInjective);
    const pb::IntTupleSet elems = wr.range();
    const std::size_t rank = elems.arity(), numElems = elems.size();
    const pb::Value* elemRows = elems.rowData().data();
    // The write rows ascend by iteration, so the last row that writes an
    // element holds its lexmax writer.
    std::vector<const pb::Value*> lastWriter(numElems, nullptr);
    for (const pb::PairView w : wr.pairs())
      lastWriter[pb::rows::lowerBound(elemRows, numElems, rank, 0,
                                      w.second.data(), rank)] = w.first.data();
    for (const pb::PairView r : rd.pairs()) {
      const std::size_t e = pb::rows::lowerBound(elemRows, numElems, rank, 0,
                                                 r.second.data(), rank);
      if (e == numElems ||
          !pb::rows::equal(elemRows + e * rank, r.second.data(), rank))
        continue;
      pb::rows::append(rows, r.first.data(), tgtA);
      pb::rows::append(rows, lastWriter[e], srcA);
    }
  }
  return pb::IntMap::fromRows(tgt.space(), src.space(), std::move(rows))
      .lexmaxPerDomain();
}

} // namespace

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
    checkInjective(scop, srcIdx, arrayId, wr, allowNonInjective);
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
  pb::IntMap p = lastProducerMap(rel, srcIdx, tgtIdx, allowNonInjective);
  if (p.empty())
    return pb::IntMap(rel.scop().statement(srcIdx).space(),
                      rel.scop().statement(tgtIdx).space());
  pb::IntMap h = lastRequirementMap(p);
  return h.inverse().lexmaxPerDomain();
}

} // namespace pipoly::pipeline
