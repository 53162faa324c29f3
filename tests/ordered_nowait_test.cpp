#include "baselines/ordered_nowait.hpp"

#include "kernels/suite.hpp"
#include "scop/builder.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::baselines {
namespace {

/// Two identical nests, element-wise dependence: the [40] sweet spot.
scop::Scop identicalChain(pb::Value n) {
  scop::ScopBuilder b("ident");
  std::size_t A = b.array("A", {n + 1, n + 1});
  std::size_t B = b.array("B", {n + 1, n + 1});
  auto S = b.statement("S", 2);
  S.bound(0, 0, n).bound(1, 0, n);
  S.write(A, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0), S.dim(1) + 1});
  auto T = b.statement("T", 2);
  T.bound(0, 0, n).bound(1, 0, n);
  T.write(B, {T.dim(0), T.dim(1)});
  T.read(A, {T.dim(0), T.dim(1)}); // same-iteration dependence
  T.read(B, {T.dim(0), T.dim(1) + 1});
  return b.build();
}

TEST(OrderedNowaitTest, AppliesToIdenticalElementwiseChain) {
  auto result = orderedNowaitApplicable(identicalChain(8));
  EXPECT_TRUE(result.applicable) << result.reason;
}

TEST(OrderedNowaitTest, RejectsDifferentDomains) {
  // Listing 1: R's domain is a quarter of S's.
  auto result = orderedNowaitApplicable(testing::listing1(12));
  EXPECT_FALSE(result.applicable);
  EXPECT_NE(result.reason.find("different iteration domains"),
            std::string::npos)
      << result.reason;
}

TEST(OrderedNowaitTest, RejectsForwardDependences) {
  // Target reads a *later* source iteration.
  scop::ScopBuilder b("fwd");
  std::size_t A = b.array("A", {10});
  std::size_t B = b.array("B", {10});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 8).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 8);
  T.write(B, {T.dim(0)});
  T.read(A, {T.dim(0) + 1});
  auto result = orderedNowaitApplicable(b.build());
  EXPECT_FALSE(result.applicable);
  EXPECT_NE(result.reason.find("later iteration"), std::string::npos);
}

TEST(OrderedNowaitTest, RejectsSkippingDependences) {
  // S0 feeds S2 directly: not a chain of consecutive nests.
  scop::ScopBuilder b("skip");
  std::size_t A = b.array("A", {10});
  std::size_t B = b.array("B", {10});
  std::size_t C = b.array("C", {10});
  auto S0 = b.statement("S0", 1);
  S0.bound(0, 0, 8).write(A, {S0.dim(0)});
  auto S1 = b.statement("S1", 1);
  S1.bound(0, 0, 8).write(B, {S1.dim(0)});
  auto S2 = b.statement("S2", 1);
  S2.bound(0, 0, 8);
  S2.write(C, {S2.dim(0)});
  S2.read(A, {S2.dim(0)});
  auto result = orderedNowaitApplicable(b.build());
  EXPECT_FALSE(result.applicable);
  EXPECT_NE(result.reason.find("skips a nest"), std::string::npos);
}

TEST(OrderedNowaitTest, PaperClaimOurMethodAppliesWhereTheirsDoesNot) {
  // The key §2 comparison: Listings 1 and 3 and nine of the ten Table-9
  // programs are outside [40]'s applicability, while our pipeline
  // detection handles them (detect_test/suite tests prove the latter).
  EXPECT_FALSE(orderedNowaitApplicable(testing::listing1(12)).applicable);
  EXPECT_FALSE(orderedNowaitApplicable(testing::listing3(12)).applicable);
  // Table 9: only P1 (two nests, identical domains, no forward
  // dependence) fits [40]; P2-P10 break condition (1) or chain
  // non-consecutive nests.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    EXPECT_EQ(
        orderedNowaitApplicable(kernels::buildProgram(spec, 12)).applicable,
        spec.name == "P1")
        << spec.name;
}

} // namespace
} // namespace pipoly::baselines
