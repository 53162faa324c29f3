#pragma once

// Shared SCoP fixtures used across the pipeline/schedule/codegen tests:
// the paper's Listing 1 and Listing 3, parameterised by N, two nest
// chains, and a pair of loop-free statements.

#include "scop/builder.hpp"
#include "scop/scop.hpp"
#include "support/str.hpp"

namespace pipoly::testing {

/// Listing 1 (§1):
///   for (i=0; i<N-1; i++) for (j=0; j<N-1; j++)
///     S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
///   for (i=0; i<N/2-1; i++) for (j=0; j<N/2-1; j++)
///     R: B[i][j] = g(A[i][2j], B[i][j+1], B[i+1][j+1], B[i][j]);
inline scop::Scop listing1(pb::Value n) {
  scop::ScopBuilder b("listing1");
  std::size_t A = b.array("A", {n, n});
  std::size_t B = b.array("B", {n, n});
  {
    auto S = b.statement("S", 2);
    S.bound(0, 0, n - 1).bound(1, 0, n - 1);
    S.write(A, {S.dim(0), S.dim(1)});
    S.read(A, {S.dim(0), S.dim(1)});
    S.read(A, {S.dim(0), S.dim(1) + 1});
    S.read(A, {S.dim(0) + 1, S.dim(1) + 1});
  }
  {
    auto R = b.statement("R", 2);
    R.bound(0, 0, n / 2 - 1).bound(1, 0, n / 2 - 1);
    R.write(B, {R.dim(0), R.dim(1)});
    R.read(A, {R.dim(0), 2 * R.dim(1)});
    R.read(B, {R.dim(0), R.dim(1) + 1});
    R.read(B, {R.dim(0) + 1, R.dim(1) + 1});
    R.read(B, {R.dim(0), R.dim(1)});
  }
  return b.build();
}

/// Listing 3 (§4.2): Listing 1 plus a third nest
///   for (i=0; i<N/2-1; i++) for (j=0; j<N/2-1; j++)
///     U: C[i][j] = h(A[2i][2j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
inline scop::Scop listing3(pb::Value n) {
  scop::ScopBuilder b("listing3");
  std::size_t A = b.array("A", {n, n});
  std::size_t B = b.array("B", {n, n});
  std::size_t C = b.array("C", {n, n});
  {
    auto S = b.statement("S", 2);
    S.bound(0, 0, n - 1).bound(1, 0, n - 1);
    S.write(A, {S.dim(0), S.dim(1)});
    S.read(A, {S.dim(0), S.dim(1)});
    S.read(A, {S.dim(0), S.dim(1) + 1});
    S.read(A, {S.dim(0) + 1, S.dim(1) + 1});
  }
  {
    auto R = b.statement("R", 2);
    R.bound(0, 0, n / 2 - 1).bound(1, 0, n / 2 - 1);
    R.write(B, {R.dim(0), R.dim(1)});
    R.read(A, {R.dim(0), 2 * R.dim(1)});
    R.read(B, {R.dim(0), R.dim(1) + 1});
    R.read(B, {R.dim(0) + 1, R.dim(1) + 1});
    R.read(B, {R.dim(0), R.dim(1)});
  }
  {
    auto U = b.statement("U", 2);
    U.bound(0, 0, n / 2 - 1).bound(1, 0, n / 2 - 1);
    U.write(C, {U.dim(0), U.dim(1)});
    U.read(A, {2 * U.dim(0), 2 * U.dim(1)});
    U.read(B, {U.dim(0), U.dim(1)});
    U.read(C, {U.dim(0), U.dim(1) + 1});
    U.read(C, {U.dim(0) + 1, U.dim(1) + 1});
    U.read(C, {U.dim(0), U.dim(1)});
  }
  return b.build();
}

/// A simple producer/consumer chain of `nests` identical nests over NxN
/// arrays: nest k writes A_k[i][j], reading A_{k-1}[i][j] (k > 0) and its
/// own A_k[i+1][j+1] (making every nest serial).
inline scop::Scop chain(std::size_t nests, pb::Value n) {
  scop::ScopBuilder b("chain");
  std::vector<std::size_t> arrays;
  arrays.reserve(nests);
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k), {n + 1, n + 1}));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    S.read(arrays[k], {S.dim(0) + 1, S.dim(1) + 1});
    if (k > 0)
      S.read(arrays[k - 1], {S.dim(0), S.dim(1)});
  }
  return b.build();
}

/// The chain() shape with one heavy channel edge, the middle one: S2
/// reads S1's full array, while S1 and S3 read just one element of their
/// producer, so the channel simulator's transfer cost is dominated by
/// where the S1 -> S2 edge lands.
inline scop::Scop middleHeavyChain(pb::Value n) {
  scop::ScopBuilder b("middle_heavy");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < 4; ++k)
    arrays.push_back(b.array(indexedName("A", k), {n + 1, n + 1}));
  for (std::size_t k = 0; k < 4; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    S.read(arrays[k], {S.dim(0) + 1, S.dim(1) + 1}); // keeps the nest serial
    if (k == 2)
      S.read(arrays[1], {S.dim(0), S.dim(1)}); // heavy: the full array
    else if (k > 0)
      S.read(arrays[k - 1], {S.constant(0), S.constant(0)}); // one element
  }
  return b.build();
}

/// Two depth-0 statements (no enclosing loop): S writes A[0], T reads it.
/// Their maps and requirements have zero-width rows, the corner case of
/// the row-buffer sweeps.
inline scop::Scop scalarPair() {
  scop::ScopBuilder b("scalar_pair");
  const std::size_t A = b.array("A", {4});
  const std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 0);
  S.write(A, {S.constant(0)});
  auto T = b.statement("T", 0);
  T.write(B, {T.constant(0)});
  T.read(A, {T.constant(0)});
  return b.build();
}

} // namespace pipoly::testing
