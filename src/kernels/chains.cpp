#include "kernels/chains.hpp"

#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"

namespace pipoly::kernels {

scop::Scop jacobiChain(std::size_t stages, pb::Value n) {
  PIPOLY_CHECK(stages >= 1 && n >= 4);
  scop::ScopBuilder b("jacobi_chain");
  std::size_t input = b.array("G0", {n, n});
  std::vector<std::size_t> grids{input};
  for (std::size_t k = 1; k <= stages; ++k)
    grids.push_back(b.array(indexedName("G", k), {n, n}));

  for (std::size_t k = 1; k <= stages; ++k) {
    auto S = b.statement(indexedName("J", k), 2);
    // Interior points only: the 3x3 stencil stays in bounds.
    S.bound(0, 1, n - 1).bound(1, 1, n - 1);
    S.write(grids[k], {S.dim(0), S.dim(1)});
    for (pb::Value di = -1; di <= 1; ++di)
      for (pb::Value dj = -1; dj <= 1; ++dj)
        S.read(grids[k - 1], {S.dim(0) + di, S.dim(1) + dj});
    // Serial within the stage: previous column of the own grid.
    S.read(grids[k], {S.dim(0), S.dim(1) - 1});
    S.read(grids[k], {S.dim(0) - 1, S.dim(1)});
  }
  return b.build();
}

scop::Scop seidelChain(std::size_t stages, pb::Value n) {
  PIPOLY_CHECK(stages >= 1 && n >= 3);
  scop::ScopBuilder b("seidel_chain");
  std::size_t input = b.array("G0", {n, n});
  std::vector<std::size_t> grids{input};
  for (std::size_t k = 1; k <= stages; ++k)
    grids.push_back(b.array(indexedName("G", k), {n, n}));

  for (std::size_t k = 1; k <= stages; ++k) {
    auto S = b.statement(indexedName("GS", k), 2);
    S.bound(0, 1, n).bound(1, 1, n);
    S.write(grids[k], {S.dim(0), S.dim(1)});
    S.read(grids[k - 1], {S.dim(0), S.dim(1)});
    // The classic Gauss-Seidel sweep dependencies within the stage.
    S.read(grids[k], {S.dim(0) - 1, S.dim(1)});
    S.read(grids[k], {S.dim(0), S.dim(1) - 1});
  }
  return b.build();
}

scop::Scop shrinkingChain(std::size_t stages, pb::Value n, pb::Value shrink) {
  PIPOLY_CHECK(stages >= 1);
  PIPOLY_CHECK_MSG(n - static_cast<pb::Value>(stages - 1) * shrink >= 2,
                   "chain shrinks to an empty stage");
  scop::ScopBuilder b("shrinking_chain");
  std::vector<std::size_t> grids;
  grids.push_back(b.array("L0", {n, n}));
  for (std::size_t k = 1; k <= stages; ++k)
    grids.push_back(b.array(indexedName("L", k), {n, n}));

  for (std::size_t k = 1; k <= stages; ++k) {
    const pb::Value extent = n - static_cast<pb::Value>(k - 1) * shrink;
    auto S = b.statement(indexedName("C", k), 2);
    S.bound(0, 0, extent - 1).bound(1, 0, extent - 1);
    S.write(grids[k], {S.dim(0), S.dim(1)});
    S.read(grids[k - 1], {S.dim(0), S.dim(1)});
    S.read(grids[k - 1], {S.dim(0) + 1, S.dim(1) + 1});
    // Keep each stage serial.
    S.read(grids[k], {S.dim(0), S.dim(1) + 1});
    S.read(grids[k], {S.dim(0) + 1, S.dim(1) + 1});
  }
  return b.build();
}

scop::Scop fdtdChain(std::size_t stages, pb::Value n) {
  PIPOLY_CHECK(stages >= 1 && n >= 3);
  scop::ScopBuilder b("fdtd_chain");
  std::vector<std::size_t> ex, ey;
  ex.push_back(b.array("Ex0", {n, n}));
  ey.push_back(b.array("Ey0", {n, n}));
  for (std::size_t k = 1; k <= stages; ++k) {
    ex.push_back(b.array(indexedName("Ex", k), {n, n}));
    ey.push_back(b.array(indexedName("Ey", k), {n, n}));
  }
  for (std::size_t k = 1; k <= stages; ++k) {
    auto S = b.statement(indexedName("F", k), 2);
    S.bound(0, 0, n - 1).bound(1, 0, n - 1);
    // Multi-write: both field components of this time step.
    S.write(ex[k], {S.dim(0), S.dim(1)});
    S.write(ey[k], {S.dim(0), S.dim(1)});
    S.read(ex[k - 1], {S.dim(0), S.dim(1)});
    S.read(ex[k - 1], {S.dim(0) + 1, S.dim(1)});
    S.read(ey[k - 1], {S.dim(0), S.dim(1)});
    S.read(ey[k - 1], {S.dim(0), S.dim(1) + 1});
    // Keep the stage serial in both dimensions.
    S.read(ex[k], {S.dim(0), S.dim(1) + 1});
    S.read(ey[k], {S.dim(0) + 1, S.dim(1)});
  }
  return b.build();
}

std::vector<double> defaultStageWeights(std::size_t stages) {
  // A hump-shaped profile: the middle stage is the heaviest — the §4.4
  // average case where L_max sits in the middle (Fig. 5).
  std::vector<double> weights(stages, 1.0);
  for (std::size_t k = 0; k < stages; ++k) {
    const double x = stages <= 1
                         ? 0.0
                         : static_cast<double>(k) /
                               static_cast<double>(stages - 1);
    weights[k] = 1.0 + 3.0 * (1.0 - (2.0 * x - 1.0) * (2.0 * x - 1.0));
  }
  return weights;
}

} // namespace pipoly::kernels
