#include "pipeline/detect_cache.hpp"

#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <utility>

namespace pipoly::pipeline {

namespace {

/// Length-prefixed, delimiter-separated serialisation: every token is
/// unambiguous, so distinct inputs always produce distinct keys.
class KeyBuilder {
public:
  void num(std::int64_t v) {
    key_ += std::to_string(v);
    key_ += ',';
  }
  void str(const std::string& s) {
    num(static_cast<std::int64_t>(s.size()));
    key_ += s;
    key_ += ';';
  }
  void rows(const pb::RowBuffer& data) {
    num(static_cast<std::int64_t>(data.size()));
    for (pb::Value v : data)
      num(v);
  }
  void affine(const pb::AffineMap& m) {
    num(static_cast<std::int64_t>(m.numInputs()));
    num(static_cast<std::int64_t>(m.numOutputs()));
    for (const pb::AffineExpr& e : m.outputs()) {
      num(e.constantTerm());
      for (std::size_t i = 0; i < e.numDims(); ++i)
        num(e.coeff(i));
    }
  }
  void access(const scop::Access& a) {
    num(static_cast<std::int64_t>(a.arrayId));
    affine(a.subscripts);
    num(static_cast<std::int64_t>(a.auxExtents.size()));
    for (pb::Value v : a.auxExtents)
      num(v);
  }

  std::string take() { return std::move(key_); }

private:
  std::string key_;
};

} // namespace

std::string detectFingerprint(const scop::Scop& scop,
                              const DetectOptions& options) {
  KeyBuilder k;
  k.str("pipoly-detect-v3");
  k.num(static_cast<std::int64_t>(options.integration));
  k.num(static_cast<std::int64_t>(options.coarsening));
  k.num(options.allowNonInjectiveWrites ? 1 : 0);
  k.num(options.relaxSameNestOrdering ? 1 : 0);
  // reductionMode changes the detected blocking and requirements for
  // reduction statements; reductionBlocks sizes their uniform split.
  // Both are result-affecting and must separate cache entries.
  k.num(static_cast<std::int64_t>(options.reductionMode));
  k.num(static_cast<std::int64_t>(options.reductionBlocks));
  // numThreads deliberately excluded: the result is bit-identical for
  // every thread count (detect.hpp's contract), so serial and parallel
  // runs share entries.

  k.str(scop.name());
  k.num(static_cast<std::int64_t>(scop.arrays().size()));
  for (const scop::Array& a : scop.arrays()) {
    k.str(a.name);
    k.num(static_cast<std::int64_t>(a.shape.size()));
    for (pb::Value v : a.shape)
      k.num(v);
  }
  k.num(static_cast<std::int64_t>(scop.numStatements()));
  for (const scop::Statement& s : scop.statements()) {
    k.str(s.name());
    k.num(static_cast<std::int64_t>(s.depth()));
    k.str(s.domain().space().name());
    k.num(static_cast<std::int64_t>(s.domain().arity()));
    k.num(static_cast<std::int64_t>(s.domain().size()));
    k.rows(s.domain().rowData());
    k.num(static_cast<std::int64_t>(s.writes().size()));
    for (const scop::Access& a : s.writes())
      k.access(a);
    k.num(static_cast<std::int64_t>(s.reads().size()));
    for (const scop::Access& a : s.reads())
      k.access(a);
    // The declared reduction operator gates the relaxation under
    // reductionMode=auto, so two SCoPs differing only in it must not
    // alias.
    k.num(static_cast<std::int64_t>(s.reductionOp()));
  }
  return k.take();
}

DetectCache::DetectCache(std::size_t capacity) : capacity_(capacity) {
  PIPOLY_CHECK_MSG(capacity > 0, "detect cache needs a non-zero capacity");
}

const PipelineInfo* DetectCache::lookupLocked(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end())
    return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second); // move to front
  return &it->second->info;
}

void DetectCache::insertLocked(std::string key, const PipelineInfo& info) {
  if (index_.find(key) != index_.end())
    return; // a concurrent miss got here first; keep its entry
  lru_.push_front(Entry{std::move(key), info});
  index_.emplace(lru_.front().key, lru_.begin());
  if (lru_.size() > capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

PipelineInfo DetectCache::getOrCompute(const scop::Scop& scop,
                                       const DetectOptions& options) {
  std::string key = detectFingerprint(scop, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const PipelineInfo* hit = lookupLocked(key)) {
      ++stats_.hits;
      trace::instant("detect.cache.hit");
      return *hit; // cheap: shares the presburger row buffers
    }
    ++stats_.misses;
  }
  trace::instant("detect.cache.miss");
  // Compute outside the lock so a slow miss never blocks hits on other
  // keys (or the counters).
  PipelineInfo info = detectPipeline(scop, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(std::move(key), info);
    trace::counter("detect.cache.size", static_cast<double>(lru_.size()));
  }
  return info;
}

DetectCache::Stats DetectCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = lru_.size();
  return s;
}

void DetectCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
}

} // namespace pipoly::pipeline
