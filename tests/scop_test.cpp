#include "scop/scop.hpp"

#include "presburger/parser.hpp"
#include "scop/builder.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pipoly::scop {
namespace {

using pb::Tuple;

/// The paper's Listing 1 with parameter N:
///   for (i=0; i<N-1; i++) for (j=0; j<N-1; j++)
///     S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
///   for (i=0; i<N/2-1; i++) for (j=0; j<N/2-1; j++)
///     R: B[i][j] = g(A[i][2j], B[i][j+1], B[i+1][j+1], B[i][j]);
Scop buildListing1(pb::Value n) {
  ScopBuilder b("listing1");
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

TEST(ScopBuilderTest, Listing1Shape) {
  Scop scop = buildListing1(8);
  EXPECT_EQ(scop.numStatements(), 2u);
  EXPECT_EQ(scop.statement(0).name(), "S");
  EXPECT_EQ(scop.statement(0).domain().size(), 49u); // 7x7
  EXPECT_EQ(scop.statement(1).domain().size(), 9u);  // 3x3
}

TEST(ScopBuilderTest, EmptyDomainIsLegalAndHasNoPoints) {
  ScopBuilder b("zero-extent");
  auto S = b.statement("S", 1);
  S.bound(0, 5, 5);
  Scop scop = b.build();
  EXPECT_EQ(scop.statement(0).domain().size(), 0u);
}

TEST(ScopBuilderTest, TriangularBounds) {
  ScopBuilder b("tri");
  std::size_t A = b.array("A", {4, 4});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 4);
  S.bound(1, S.constant(0), S.dim(0) + 1); // 0 <= j <= i
  S.write(A, {S.dim(0), S.dim(1)});
  Scop scop = b.build();
  EXPECT_EQ(scop.statement(0).domain().size(), 10u);
}

TEST(ScopTest, AccessRelationPlain) {
  Scop scop = buildListing1(8);
  // R reads A[i][2j].
  pb::IntMap rd = scop.readRelation(1, 0);
  pb::IntMap expected = pb::parseMap(
      "{ R[i, j] -> A[a, b] : 0 <= i < 3 and 0 <= j < 3 and a = i and b = 2 j "
      "}");
  EXPECT_EQ(rd, expected);
}

TEST(ScopTest, WriteRelationIsInjective) {
  Scop scop = buildListing1(8);
  EXPECT_TRUE(scop.writeRelation(0, 0).isInjective());
  EXPECT_TRUE(scop.writeRelation(1, 1).isInjective());
}

TEST(ScopTest, AccessOutOfBoundsThrows) {
  ScopBuilder b("oob");
  std::size_t A = b.array("A", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4);
  S.write(A, {S.dim(0) + 1}); // A[4] out of bounds at i=3
  Scop scop = b.build();
  EXPECT_THROW((void)scop.writeRelation(0, 0), Error);
}

TEST(ScopTest, AccessOutOfBoundsNamesThePoint) {
  ScopBuilder b("oob");
  std::size_t A = b.array("A", {4, 3});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4);
  // Row i of A through an aux dim, one row too far at i = 3.
  S.readRange(A, {S.rangeDim(0, 1) + 1, S.rangeAux(0, 1)}, {3});
  S.write(A, {S.dim(0), S.constant(0)});
  Scop scop = b.build();
  try {
    (void)scop.readRelation(0, 0);
    FAIL() << "no throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("access out of bounds: S[3] -> A[4, 0]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScopTest, RowWiseRelationsMatchPerPointEvaluation) {
  // accessRelation evaluates subscripts row by row; the reference is
  // AffineMap::evaluate on each (iteration, aux) tuple.
  ScopBuilder b("rows");
  std::size_t A = b.array("A", {12, 12});
  std::size_t B = b.array("B", {12, 12});
  auto S = b.statement("S", 2);
  S.bound(0, 1, 5).bound(1, 0, 4);
  S.write(A, {S.dim(0), S.dim(1)});
  S.readRange(B, {S.rangeDim(1, 2) + S.rangeAux(1, 2),
                  2 * S.rangeAux(0, 2) + S.rangeDim(0, 2)},
              {3, 2});
  S.readRange(B, {S.rangeDim(0, 1), S.rangeAux(0, 1)}, {0});
  Scop scop = b.build();
  const Statement& stmt = scop.statement(0);
  for (const auto* accesses : {&stmt.writes(), &stmt.reads()})
    for (const Access& a : *accesses) {
      std::vector<pb::IntMap::Pair> want;
      std::vector<pb::Tuple> aux;
      if (a.numAuxPoints() > 0) {
        if (a.numAuxDims() == 0)
          aux.push_back(pb::Tuple{});
        else
          for (pb::TupleView t :
               pb::IntTupleSet::rectangle(pb::Space("aux", a.numAuxDims()),
                                          a.auxExtents)
                   .points())
            aux.emplace_back(t);
      }
      for (const pb::Tuple& it : stmt.domain().points())
        for (const pb::Tuple& x : aux)
          want.emplace_back(it, a.subscripts.evaluate(concat(it, x)));
      const pb::IntMap got = scop.accessRelation(0, a);
      EXPECT_EQ(got, pb::IntMap(stmt.space(), scop.array(a.arrayId).space(),
                                std::move(want)));
    }
  EXPECT_EQ(scop.readRelation(0, B).size(), 4u * 4u * 6u);
}

TEST(ScopTest, RangeAccessEnumeratesSlab) {
  // S[i] reads the whole row i of a 3x4 array.
  ScopBuilder b("rows");
  std::size_t A = b.array("A", {3, 4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 3);
  S.readRange(A, {S.rangeDim(0, 1), S.rangeAux(0, 1)}, {4});
  S.write(A, {S.dim(0), S.constant(0)});
  Scop scop = b.build();
  pb::IntMap rd = scop.readRelation(0, 0);
  EXPECT_EQ(rd.size(), 12u);
  EXPECT_TRUE(rd.contains(Tuple{2}, Tuple{2, 3}));
  EXPECT_FALSE(rd.contains(Tuple{2}, Tuple{1, 0}));
}

TEST(ScopTest, ArrayListing) {
  Scop scop = buildListing1(8);
  EXPECT_EQ(scop.arraysWrittenBy(0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(scop.arraysReadBy(1), (std::vector<std::size_t>{0, 1}));
}

TEST(DependencesTest, CrossStatementFlow) {
  Scop scop = buildListing1(8);
  EXPECT_TRUE(dependsOn(scop, 1, 0));
  pb::IntMap flow = flowDependences(scop, 0, 1);
  // R[i,j] reads A[i][2j]; S writes A[i][j]. So S[i,2j] -> R[i,j].
  EXPECT_TRUE(flow.contains(Tuple{0, 0}, Tuple{0, 0}));
  EXPECT_TRUE(flow.contains(Tuple{1, 4}, Tuple{1, 2}));
  EXPECT_FALSE(flow.contains(Tuple{0, 1}, Tuple{0, 0}));
}

TEST(DependencesTest, NoDependenceBetweenUnrelatedStatements) {
  ScopBuilder b("unrelated");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)}).read(B, {T.dim(0)});
  Scop scop = b.build();
  EXPECT_FALSE(dependsOn(scop, 1, 0));
}

TEST(DependencesTest, ProgramModelRejectsALaterWriteToAnAccessedArray) {
  // U writes A, which S wrote and T read before it.
  ScopBuilder b("late_write");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)}).read(A, {T.dim(0)});
  auto U = b.statement("U", 1);
  U.bound(0, 0, 4).write(A, {U.dim(0)});
  const Scop scop = b.build();
  try {
    validateProgramModel(scop);
    FAIL() << "a later write to an accessed array must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "statement U writes array A that earlier statement S "
                  "accesses"),
              std::string::npos)
        << e.what();
  }
}

TEST(DependencesTest, ProgramModelIgnoresAccessesThatTouchNothing) {
  // S never runs (empty domain) and T's read sweeps an empty aux range:
  // neither touches A, so U may write it.
  ScopBuilder b("touch_nothing");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 0).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)});
  T.readRange(A, {T.rangeDim(0, 1) + T.rangeAux(0, 1)}, {0});
  auto U = b.statement("U", 1);
  U.bound(0, 0, 4).write(A, {U.dim(0)});
  EXPECT_NO_THROW(validateProgramModel(b.build()));
}

TEST(DependencesTest, SelfDependencesSerialNest) {
  Scop scop = buildListing1(8);
  // S reads A[i+1][j+1] and writes A[i][j]: both dims carry dependences.
  std::vector<bool> par = parallelDims(scop, 0);
  EXPECT_FALSE(par[0]);
  // Dim 1 (j) carries A[i][j+1] -> anti/flow at same i.
  EXPECT_FALSE(par[1]);
}

TEST(DependencesTest, ParallelDimsOfIndependentNest) {
  // S[i][j]: B[i][j] = A[i][j] — fully parallel.
  ScopBuilder b("par");
  std::size_t A = b.array("A", {4, 4});
  std::size_t B = b.array("B", {4, 4});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 4).bound(1, 0, 4);
  S.write(B, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0), S.dim(1)});
  Scop scop = b.build();
  std::vector<bool> par = parallelDims(scop, 0);
  EXPECT_TRUE(par[0]);
  EXPECT_TRUE(par[1]);
}

TEST(DependencesTest, OuterParallelInnerSerial) {
  // A[i][j] = A[i][j-1]: i parallel, j serial.
  ScopBuilder b("rowchain");
  std::size_t A = b.array("A", {4, 5});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 4).bound(1, 1, 5);
  S.write(A, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0), S.dim(1) - 1});
  Scop scop = b.build();
  std::vector<bool> par = parallelDims(scop, 0);
  EXPECT_TRUE(par[0]);
  EXPECT_FALSE(par[1]);
}

TEST(DependencesTest, SelfFlowRespectsLexOrder) {
  // A[i] = A[i-1]: flow dep i-1 -> i only (increasing pairs).
  ScopBuilder b("chain");
  std::size_t A = b.array("A", {5});
  auto S = b.statement("S", 1);
  S.bound(0, 1, 5);
  S.write(A, {S.dim(0)});
  S.read(A, {S.dim(0) - 1});
  Scop scop = b.build();
  pb::IntMap deps = selfDependences(scop, 0);
  EXPECT_TRUE(deps.contains(Tuple{1}, Tuple{2}));
  EXPECT_FALSE(deps.contains(Tuple{2}, Tuple{1}));
}

} // namespace
} // namespace pipoly::scop
