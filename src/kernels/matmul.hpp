#pragma once

// The paper's second benchmark set (Fig. 11): chains of matrix
// multiplications in four variants, built — as in the paper — as
// consecutive *vector-matrix* multiplication nests so the prototype's
// depth-2 / one-task-per-nest code generation applies:
//
//   nmm   — n consecutive multiplications   M_k = M_{k-1} * B_k
//   nmmt  — same, with the second operand transposed beforehand
//   gnmm  — generalized: each element is additionally multiplied by
//           (C[i+1][j] + C[i][j-1]) of the result matrix, which puts a
//           carried dependence on both loop dimensions (Polly finds
//           nothing to parallelize)
//   gnmmt — gnmm with the transposed second operand
//
// Statement S_k computes one element M_k[i][j] as a dot product: it reads
// the whole row i of M_{k-1} (an auxiliary-dimension range access) and
// the column/row j of the constant operand B_k.

#include "scop/scop.hpp"

#include <string>

namespace pipoly::kernels {

enum class MatmulVariant { NMM, NMMT, GNMM, GNMMT };

std::string variantName(MatmulVariant v);
bool isTransposed(MatmulVariant v);
bool isGeneralized(MatmulVariant v);

/// Builds the SCoP of `chainLength` consecutive multiplications of
/// N x N matrices ("2mm" = chainLength 2, etc.).
scop::Scop matmulChain(MatmulVariant variant, std::size_t chainLength,
                       pb::Value n);

/// Measures the cost (seconds) of one statement instance — one output
/// element M_k[i][j] — on this host: a length-n dot product with column
/// access (plain) or row access (transposed), or one element's share of a
/// cache-tiled n x n multiplication (what Polly's tiling achieves). Each
/// is the fastest of several timed repetitions.
double measureDotCost(pb::Value n, bool transposed);
double measureTiledMatmulCostPerElement(pb::Value n);

} // namespace pipoly::kernels
