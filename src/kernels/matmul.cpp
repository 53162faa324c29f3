#include "kernels/matmul.hpp"

#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

namespace pipoly::kernels {

std::string variantName(MatmulVariant v) {
  switch (v) {
  case MatmulVariant::NMM:
    return "nmm";
  case MatmulVariant::NMMT:
    return "nmmt";
  case MatmulVariant::GNMM:
    return "gnmm";
  case MatmulVariant::GNMMT:
    return "gnmmt";
  }
  PIPOLY_UNREACHABLE("variant");
}

bool isTransposed(MatmulVariant v) {
  return v == MatmulVariant::NMMT || v == MatmulVariant::GNMMT;
}

bool isGeneralized(MatmulVariant v) {
  return v == MatmulVariant::GNMM || v == MatmulVariant::GNMMT;
}

scop::Scop matmulChain(MatmulVariant variant, std::size_t chainLength,
                       pb::Value n) {
  PIPOLY_CHECK(chainLength >= 1);
  const bool generalized = isGeneralized(variant);

  scop::ScopBuilder b(variantName(variant) + std::to_string(chainLength));
  std::size_t input = b.array("In", {n, n});
  std::vector<std::size_t> operands, results;
  for (std::size_t k = 0; k < chainLength; ++k) {
    operands.push_back(b.array(indexedName("B", k + 1), {n, n}));
    results.push_back(b.array(indexedName("M", k + 1), {n, n}));
  }

  for (std::size_t k = 0; k < chainLength; ++k) {
    auto S = b.statement(indexedName("S", k + 1), 2);
    if (generalized) {
      // Domain shrunk so the C[i+1][j] / C[i][j-1] reads stay in bounds.
      S.bound(0, 0, n - 1).bound(1, 1, n);
    } else {
      S.bound(0, 0, n).bound(1, 0, n);
    }
    S.write(results[k], {S.dim(0), S.dim(1)});

    // Row i of the previous result (or of the input matrix for k = 0).
    const std::size_t prev = k == 0 ? input : results[k - 1];
    S.readRange(prev, {S.rangeDim(0, 1), S.rangeAux(0, 1)}, {n});
    // Column j of the operand — or row j when transposed beforehand. The
    // dependence shape is identical; only the memory layout (and thus the
    // measured cost) differs.
    if (isTransposed(variant))
      S.readRange(operands[k], {S.rangeDim(1, 1), S.rangeAux(0, 1)}, {n});
    else
      S.readRange(operands[k], {S.rangeAux(0, 1), S.rangeDim(1, 1)}, {n});

    if (generalized) {
      // C[i][j] *= C[i+1][j] + C[i][j-1]: carried dependences in both
      // dimensions of this nest.
      S.read(results[k], {S.dim(0) + 1, S.dim(1)});
      S.read(results[k], {S.dim(0), S.dim(1) - 1});
    }
  }
  return b.build();
}

namespace {
// Warm-up call, then timed repetitions; the fastest one counts, so a
// single preemption cannot skew the result.
double timeLoop(const std::function<double()>& body, int reps) {
  volatile double sink = body();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    sink = body();
    best = std::min(best, sw.seconds());
  }
  (void)sink;
  return best;
}
} // namespace

double measureDotCost(pb::Value n, bool transposed) {
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> a(size * size, 1.5), bmat(size * size, 2.5);
  // Average over a full row of dot products so cache effects show up.
  double perCall = timeLoop(
      [&] {
        double acc = 0;
        for (std::size_t j = 0; j < size; ++j) {
          double dot = 0;
          for (std::size_t k = 0; k < size; ++k)
            dot += a[k] * (transposed ? bmat[j * size + k]
                                      : bmat[k * size + j]);
          acc += dot;
        }
        return acc;
      },
      5);
  return perCall / static_cast<double>(size); // per element
}

double measureTiledMatmulCostPerElement(pb::Value n) {
  const auto size = static_cast<std::size_t>(n);
  constexpr std::size_t kTile = 32;
  std::vector<double> a(size * size, 1.5), bmat(size * size, 2.5),
      c(size * size, 0.0);
  double perCall = timeLoop(
      [&] {
        std::fill(c.begin(), c.end(), 0.0);
        for (std::size_t ii = 0; ii < size; ii += kTile)
          for (std::size_t kk = 0; kk < size; kk += kTile)
            for (std::size_t jj = 0; jj < size; jj += kTile)
              for (std::size_t i = ii; i < std::min(ii + kTile, size); ++i)
                for (std::size_t k = kk; k < std::min(kk + kTile, size); ++k) {
                  const double av = a[i * size + k];
                  for (std::size_t j = jj; j < std::min(jj + kTile, size);
                       ++j)
                    c[i * size + j] += av * bmat[k * size + j];
                }
        return c[size + 1];
      },
      5);
  return perCall / static_cast<double>(size * size); // per element
}

} // namespace pipoly::kernels
