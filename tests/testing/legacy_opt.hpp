#pragma once

// Test-only reference for opt::optimize's transitive reduction.
//
// legacyTransitiveReduce is the dense formulation the chain-counter pass
// replaced: one forward sweep in creation order keeps every task's full
// ancestor set as a V-bit row (O(V^2/64) memory, O(V*E/64) time) and
// drops an edge p -> v when p is an ancestor of another direct
// predecessor of v, except the same-statement funcCount edge under
// chainOrdering. The optimizer's pass must leave exactly the same `in`
// lists and report the same count.

#include "codegen/task_program.hpp"
#include "support/assert.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace pipoly::testing {

/// Transitively reduces `program` in place; returns the removed edges.
inline std::size_t legacyTransitiveReduce(codegen::TaskProgram& program) {
  const std::size_t n = program.tasks.size();
  if (n == 0)
    return 0;
  std::map<std::pair<int, std::int64_t>, std::size_t> owner;
  for (const codegen::Task& t : program.tasks)
    owner.emplace(std::make_pair(t.out.idx, t.out.tag), t.id);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> ancestors(n * words, 0);
  std::vector<std::uint64_t> predUnion(words);
  std::vector<std::size_t> preds;

  std::size_t removed = 0;
  for (codegen::Task& t : program.tasks) {
    preds.clear();
    for (const codegen::TaskDep& dep : t.in) {
      const auto it = owner.find({dep.idx, dep.tag});
      PIPOLY_CHECK_MSG(it != owner.end() && it->second < t.id,
                       "legacy reduction: unresolved in-dependency");
      preds.push_back(it->second);
    }
    std::fill(predUnion.begin(), predUnion.end(), 0);
    for (const std::size_t p : preds) {
      const std::uint64_t* row = ancestors.data() + p * words;
      for (std::size_t w = 0; w < words; ++w)
        predUnion[w] |= row[w];
    }

    std::vector<codegen::TaskDep> kept;
    for (std::size_t k = 0; k < t.in.size(); ++k) {
      const std::size_t p = preds[k];
      const bool implied = (predUnion[p / 64] >> (p % 64)) & 1;
      if (implied && !(program.chainOrdering && t.in[k].selfOrdering)) {
        ++removed;
        continue;
      }
      kept.push_back(t.in[k]);
    }
    t.in = std::move(kept);

    std::uint64_t* row = ancestors.data() + t.id * words;
    std::copy(predUnion.begin(), predUnion.end(), row);
    for (const std::size_t p : preds)
      row[p / 64] |= std::uint64_t{1} << (p % 64);
  }
  return removed;
}

} // namespace pipoly::testing
