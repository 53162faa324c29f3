#include "verify/oracle.hpp"

#include "support/assert.hpp"
#include "support/rng.hpp"

#include <utility>

namespace pipoly::verify {

InterpretedKernel::InterpretedKernel(const scop::Scop& scop) : scop_(&scop) {
  arrays_.reserve(scop.arrays().size());
  for (const scop::Array& a : scop.arrays()) {
    std::size_t size = 1;
    for (pb::Value extent : a.shape)
      size *= static_cast<std::size_t>(extent);
    arrays_.emplace_back(size);
  }
  reset();
}

void InterpretedKernel::reset() {
  for (std::size_t a = 0; a < arrays_.size(); ++a)
    for (std::size_t i = 0; i < arrays_[a].size(); ++i)
      arrays_[a][i] = hashCombine(0x9042'1fb2'55aa'11eeULL + a, i);
}

std::size_t InterpretedKernel::flatten(const scop::Array& arr,
                                       const pb::Tuple& subs) {
  std::size_t flat = 0;
  for (std::size_t d = 0; d < subs.size(); ++d)
    flat = flat * static_cast<std::size_t>(arr.shape[d]) +
           static_cast<std::size_t>(subs[d]);
  return flat;
}

template <typename Fn>
void InterpretedKernel::forEachElement(const scop::Access& access,
                                       const pb::Tuple& iteration, Fn&& fn) {
  const scop::Array& arr = scop_->array(access.arrayId);
  if (access.numAuxDims() == 0) {
    fn(access.arrayId, flatten(arr, access.subscripts.evaluate(iteration)));
    return;
  }
  std::vector<pb::Value> full(iteration.begin(), iteration.end());
  full.resize(iteration.size() + access.numAuxDims(), 0);
  while (true) {
    fn(access.arrayId,
       flatten(arr, access.subscripts.evaluate(pb::Tuple(full))));
    std::size_t k = access.numAuxDims();
    while (k > 0) {
      --k;
      std::size_t pos = iteration.size() + k;
      if (++full[pos] < access.auxExtents[k])
        break;
      full[pos] = 0;
      if (k == 0)
        return;
    }
  }
}

void InterpretedKernel::execute(std::size_t stmtIdx,
                                const pb::Tuple& iteration) {
  const scop::Statement& stmt = scop_->statement(stmtIdx);
  std::uint64_t acc = hashCombine(0xf00d, stmtIdx);
  for (pb::Value v : iteration)
    acc = hashCombine(acc, static_cast<std::uint64_t>(v));
  for (const scop::Access& read : stmt.reads())
    forEachElement(read, iteration,
                   [&](std::size_t arrayId, std::size_t flat) {
                     acc = hashCombine(acc, arrays_[arrayId][flat]);
                   });
  for (const scop::Access& write : stmt.writes())
    forEachElement(write, iteration,
                   [&](std::size_t arrayId, std::size_t flat) {
                     arrays_[arrayId][flat] = acc;
                   });
}

std::uint64_t InterpretedKernel::fingerprint() const {
  std::uint64_t acc = 0x5eed;
  for (const auto& arr : arrays_)
    for (std::uint64_t v : arr)
      acc = hashCombine(acc, v);
  return acc;
}

std::uint64_t sequentialFingerprint(const scop::Scop& scop) {
  InterpretedKernel kernel(scop);
  tasking::executeSequential(scop, kernel.executor());
  return kernel.fingerprint();
}

VerifyResult selfCheck(const scop::Scop& scop, std::string backend,
                       const Execution& run, int repetitions) {
  PIPOLY_CHECK(repetitions >= 1);
  VerifyResult result;
  result.backend = std::move(backend);
  result.expected = sequentialFingerprint(scop);
  result.ok = true;
  for (int rep = 0; rep < repetitions; ++rep) {
    InterpretedKernel kernel(scop);
    run(kernel.executor());
    const std::uint64_t actual = kernel.fingerprint();
    // Keep the first mismatch: a later matching run must not hide it.
    if (result.ok)
      result.actual = actual;
    result.ok = result.ok && actual == result.expected;
  }
  return result;
}

VerifyResult selfCheck(const scop::Scop& scop,
                       const codegen::TaskProgram& program,
                       tasking::TaskingLayer& layer, int repetitions) {
  return selfCheck(
      scop, std::string(layer.name()),
      [&](const tasking::StatementExecutor& exec) {
        tasking::executeTaskProgram(program, layer, exec);
      },
      repetitions);
}

} // namespace pipoly::verify
