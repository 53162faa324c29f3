#include "frontend/frontend.hpp"

#include "codegen/task_program.hpp"
#include "pipeline/pipeline_map.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/parser.hpp"

#include <gtest/gtest.h>

namespace pipoly::frontend {
namespace {

constexpr const char* kListing1 = R"(
  // The paper's Listing 1.
  param N = 20;
  array A[N][N];
  array B[N][N];
  for (i = 0; i < N - 1; i++)
    for (j = 0; j < N - 1; j++)
      S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
  for (i = 0; i < N/2 - 1; i++)
    for (j = 0; j < N/2 - 1; j++)
      R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
)";

TEST(FrontendTest, ParsesListing1) {
  scop::Scop scop = parseProgram(kListing1);
  ASSERT_EQ(scop.numStatements(), 2u);
  EXPECT_EQ(scop.statement(0).name(), "S");
  EXPECT_EQ(scop.statement(1).name(), "R");
  EXPECT_EQ(scop.statement(0).domain().size(), 19u * 19u);
  EXPECT_EQ(scop.statement(1).domain().size(), 9u * 9u);
  EXPECT_EQ(scop.arrays().size(), 2u);
}

TEST(FrontendTest, MatchesHandBuiltFixture) {
  // The frontend must produce the same accesses/domains as the hand-built
  // Listing 1 fixture: identical pipeline maps.
  scop::Scop parsed = parseProgram(kListing1);
  scop::Scop handBuilt = testing::listing1(20);
  EXPECT_EQ(pipeline::pipelineMap(parsed, 0, 1),
            pipeline::pipelineMap(handBuilt, 0, 1));
}

TEST(FrontendTest, PaperPipelineMapFromSource) {
  scop::Scop scop = parseProgram(kListing1);
  pb::IntMap expected = pb::parseMap(
      "{ S[i0, i1] -> R[o0, o1] : 0 <= i0 <= 8 and 0 <= i1 <= 16 and "
      "i1 = 2 o1 and o0 = i0 }");
  EXPECT_EQ(pipeline::pipelineMap(scop, 0, 1), expected);
}

TEST(FrontendTest, ParameterOverride) {
  scop::Scop scop = parseProgram(kListing1, {{"N", 12}});
  EXPECT_EQ(scop.statement(0).domain().size(), 11u * 11u);
}

TEST(FrontendTest, FunctionNames) {
  auto names = parseFunctionNames(kListing1);
  EXPECT_EQ(names, (std::vector<std::string>{"f", "g"}));
}

TEST(FrontendTest, InclusiveBound) {
  scop::Scop scop = parseProgram(R"(
    array A[10];
    for (i = 0; i <= 4; i++)
      S: A[i] = f(A[i+1]);
  )");
  EXPECT_EQ(scop.statement(0).domain().size(), 5u);
}

TEST(FrontendTest, TriangularBounds) {
  scop::Scop scop = parseProgram(R"(
    array A[8][8];
    for (i = 0; i < 8; i++)
      for (j = 0; j <= i; j++)
        S: A[i][j] = f();
  )");
  EXPECT_EQ(scop.statement(0).domain().size(), 36u);
}

TEST(FrontendTest, DepthThreeNest) {
  scop::Scop scop = parseProgram(R"(
    param N = 4;
    array A[N][N][N];
    for (i = 0; i < N; i++)
      for (j = 0; j < N; j++)
        for (k = 0; k < N; k++)
          S: A[i][j][k] = f();
  )");
  EXPECT_EQ(scop.statement(0).depth(), 3u);
  EXPECT_EQ(scop.statement(0).domain().size(), 64u);
}

TEST(FrontendTest, EndToEndThroughTheWholeStack) {
  scop::Scop scop = parseProgram(kListing1, {{"N", 14}});
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  EXPECT_NO_THROW(prog.validate(scop));
  const std::uint64_t expected = pipoly::testing::sequentialFingerprint(scop);
  pipoly::testing::InterpretedKernel kernel(scop);
  auto layer = tasking::makeThreadPoolBackend(4);
  tasking::executeTaskProgram(prog, *layer, kernel.executor());
  EXPECT_EQ(kernel.fingerprint(), expected);
}

// --- diagnostics ---

TEST(FrontendDiagnosticsTest, UnknownArray) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4];
    for (i = 0; i < 4; i++)
      S: Z[i] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, UnknownIdentifier) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4];
    for (i = 0; i < M; i++)
      S: A[i] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, NonAffineSubscript) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4][4];
    for (i = 0; i < 4; i++)
      for (j = 0; j < 4; j++)
        S: A[i*j][0] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, DivisionByIterator) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4];
    for (i = 1; i < 4; i++)
      S: A[4/i] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, IteratorReuse) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4][4];
    for (i = 0; i < 4; i++)
      for (i = 0; i < 4; i++)
        S: A[i][i] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, DuplicateStatementName) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4]; array B[4];
    for (i = 0; i < 4; i++)
      S: A[i] = f();
    for (i = 0; i < 4; i++)
      S: B[i] = f(A[i]);
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, ConditionOnWrongVariable) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4][4];
    for (i = 0; i < 4; i++)
      for (j = 0; i < 4; j++)
        S: A[i][j] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, StatementOutsideLoop) {
  EXPECT_THROW((void)parseProgram(R"(
    array A[4];
    S: A[0] = f();
  )"),
               Error);
}

TEST(FrontendDiagnosticsTest, ErrorMessagesCarryLineNumbers) {
  try {
    (void)parseProgram("array A[4];\nfor (i = 0; i < 4; i++)\n  S: Z[i] = "
                       "f();\n");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(FrontendDiagnosticsTest, EmptyProgram) {
  EXPECT_THROW((void)parseProgram("array A[4];"), Error);
}

} // namespace
} // namespace pipoly::frontend
