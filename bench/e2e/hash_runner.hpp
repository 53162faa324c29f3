#pragma once

// The fine-grained statement body of bench_e2e: every instance hashes the
// array elements it reads and stores the hash into the elements it
// writes — the same memory behaviour as kernels::SuiteRunner, without the
// next_prime kernel, so one instance costs about a tenth of a
// microsecond and a run is dominated by orchestration. Auxiliary
// dimensions (the row/column ranges of the Fig. 11 matmul chains) are
// read element by element. The initial arrays derive from a seed, so the
// benchmark's --seed changes the inputs and nothing else; the fingerprint
// is exact, so any legal execution order reproduces the sequential one.

#include "presburger/tuple.hpp"
#include "scop/scop.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "tasking/executor.hpp"

#include <cstdint>
#include <vector>

namespace pipoly::bench {

class HashRunner {
public:
  HashRunner(const scop::Scop& scop, std::uint64_t seed)
      : scop_(&scop), seed_(seed) {
    for (const scop::Statement& stmt : scop.statements())
      PIPOLY_CHECK_MSG(stmt.reductionOp() == scop::ReductionOp::None,
                       "HashRunner has no partial accumulators; use "
                       "kernels::ReductionRunner for reduction programs");
    arrays_.reserve(scop.arrays().size());
    for (const scop::Array& a : scop.arrays()) {
      std::size_t total = 1;
      for (pb::Value extent : a.shape)
        total *= static_cast<std::size_t>(extent);
      arrays_.emplace_back(total);
    }
    reset();
  }

  void reset() {
    for (std::size_t a = 0; a < arrays_.size(); ++a)
      for (std::size_t i = 0; i < arrays_[a].size(); ++i)
        arrays_[a][i] = hashCombine(hashCombine(seed_, a), i);
  }

  void execute(std::size_t stmtIdx, const pb::Tuple& iteration) {
    const scop::Statement& stmt = scop_->statement(stmtIdx);
    std::uint64_t h = hashCombine(0x5u, stmtIdx);
    for (const scop::Access& read : stmt.reads())
      h = read.numAuxDims() == 0
              ? hashCombine(h, element(read.arrayId,
                                       read.subscripts.evaluate(iteration)))
              : hashRange(h, read, iteration);
    for (const scop::Access& write : stmt.writes())
      element(write.arrayId, write.subscripts.evaluate(iteration)) = h;
  }

  tasking::StatementExecutor executor() {
    return [this](std::size_t stmtIdx, const pb::Tuple& it) {
      execute(stmtIdx, it);
    };
  }

  std::uint64_t fingerprint() const {
    std::uint64_t acc = 0x2718;
    for (const auto& arr : arrays_)
      for (std::uint64_t v : arr)
        acc = hashCombine(acc, v);
    return acc;
  }

private:
  std::uint64_t& element(std::size_t arrayId, const pb::Tuple& subs) {
    const scop::Array& arr = scop_->array(arrayId);
    std::size_t flat = 0;
    for (std::size_t d = 0; d < subs.size(); ++d)
      flat = flat * static_cast<std::size_t>(arr.shape[d]) +
             static_cast<std::size_t>(subs[d]);
    return arrays_[arrayId][flat];
  }

  /// Hashes every element of a multi-element read, aux points in
  /// lexicographic order.
  std::uint64_t hashRange(std::uint64_t h, const scop::Access& read,
                          const pb::Tuple& iteration) {
    const std::size_t depth = iteration.size();
    pb::Tuple point = concat(iteration, pb::Tuple::zeros(read.numAuxDims()));
    for (;;) {
      h = hashCombine(h, element(read.arrayId, read.subscripts.evaluate(point)));
      std::size_t d = read.numAuxDims();
      while (d > 0 && ++point[depth + d - 1] == read.auxExtents[d - 1])
        point[depth + --d] = 0;
      if (d == 0)
        return h;
    }
  }

  const scop::Scop* scop_;
  std::uint64_t seed_;
  std::vector<std::vector<std::uint64_t>> arrays_;
};

} // namespace pipoly::bench
