// The widest end-to-end net: random SCoPs through every combination of
// detection options, executed on every tasking backend, must always be
// (a) structurally valid and (b) bit-identical to sequential execution.

#include "codegen/task_program.hpp"
#include "scop/builder.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "tasking/tasking.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

namespace pipoly {
namespace {

scop::Scop randomScop(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const pb::Value n = 5 + static_cast<pb::Value>(rng.nextBelow(5));
  const std::size_t nests = 2 + rng.nextBelow(3);
  scop::ScopBuilder b("stress");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k), {3 * n, 3 * n}));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    // Randomly serial or parallel nest.
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0), S.dim(1) + 1});
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0) + 1, S.dim(1)});
    // Cross reads from random earlier nests.
    const std::size_t numReads = k == 0 ? 0 : 1 + rng.nextBelow(2);
    for (std::size_t r = 0; r < numReads; ++r) {
      std::size_t src = arrays[rng.nextBelow(k)];
      pb::Value ci = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      pb::Value cj = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      S.read(src, {ci * S.dim(0) + static_cast<pb::Value>(rng.nextBelow(2)),
                   cj * S.dim(1) + static_cast<pb::Value>(rng.nextBelow(2))});
    }
  }
  return b.build();
}

class StressMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(StressMatrixTest, AllOptionsAllBackends) {
  auto [seed, optionIdx] = GetParam();
  scop::Scop scop = randomScop(seed);

  pipeline::DetectOptions opt;
  switch (optionIdx) {
  case 0:
    break; // paper defaults
  case 1:
    opt.coarsening = 3;
    break;
  case 2:
    opt.integration = pipeline::DetectOptions::Integration::FirstMapOnly;
    break;
  case 3:
    opt.relaxSameNestOrdering = true;
    break;
  default:
    opt.relaxSameNestOrdering = true;
    opt.coarsening = 2;
    break;
  }

  codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
  ASSERT_NO_THROW(prog.validate(scop));

  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  std::vector<std::unique_ptr<tasking::TaskingLayer>> layers;
  layers.push_back(tasking::makeSerialBackend());
  layers.push_back(tasking::makeThreadPoolBackend(3));
  if (auto omp = tasking::makeOpenMPBackend())
    layers.push_back(std::move(omp));
  for (auto& layer : layers) {
    testing::InterpretedKernel kernel(scop);
    tasking::executeTaskProgram(prog, *layer, kernel.executor());
    ASSERT_EQ(kernel.fingerprint(), expected)
        << "seed " << seed << " option " << optionIdx << " backend "
        << layer->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressMatrixTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(11, 22, 33, 44, 55,
                                                        66),
                       ::testing::Values(0, 1, 2, 3, 4)));

} // namespace
} // namespace pipoly
