#include "ast/ast.hpp"

#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::ast {
namespace {

Ast buildFor(const scop::Scop& scop) {
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = sched::buildPipelineSchedule(scop, info);
  return buildAst(scop, *tree);
}

TEST(AstTest, Listing3HasOneNestPerStatement) {
  scop::Scop scop = testing::listing3(16);
  Ast ast = buildFor(scop);
  ASSERT_EQ(ast.nests.size(), 3u);
  EXPECT_EQ(ast.nests[0].stmtName, "S");
  EXPECT_EQ(ast.nests[1].stmtName, "R");
  EXPECT_EQ(ast.nests[2].stmtName, "U");
}

TEST(AstTest, PipelineLoopIsInnermostBlockLoop) {
  scop::Scop scop = testing::listing1(12);
  Ast ast = buildFor(scop);
  for (const AstLoopNest& nest : ast.nests)
    EXPECT_EQ(nest.pipelineLoopDepth, nest.blockReps.space().arity() - 1);
}

TEST(AstTest, ExpansionCoversDomains) {
  scop::Scop scop = testing::listing3(16);
  Ast ast = buildFor(scop);
  for (const AstLoopNest& nest : ast.nests) {
    // Block b runs the rows [blockStarts[b], blockStarts[b + 1]), ending
    // at its representative; together the blocks tile the domain.
    const pb::IntTupleSet& domain = scop.statement(nest.stmtIdx).domain();
    ASSERT_EQ(nest.blockStarts.size(), nest.blockReps.size() + 1);
    EXPECT_EQ(nest.blockStarts.front(), 0u);
    EXPECT_EQ(nest.blockStarts.back(), domain.size());
    for (std::size_t b = 0; b < nest.blockReps.size(); ++b) {
      EXPECT_LT(nest.blockStarts[b], nest.blockStarts[b + 1]);
      EXPECT_EQ(domain.points()[nest.blockStarts[b + 1] - 1],
                nest.blockReps.points()[b]);
    }
  }
}

TEST(AstTest, AnnotationsMatchPipelineInfo) {
  scop::Scop scop = testing::listing3(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  auto tree = sched::buildPipelineSchedule(scop, info);
  Ast ast = buildAst(scop, *tree);
  for (std::size_t s = 0; s < ast.nests.size(); ++s) {
    EXPECT_EQ(ast.nests[s].annotation.stmtIdx, s);
    EXPECT_EQ(ast.nests[s].annotation.inRequirements.size(),
              info.statements[s].inRequirements.size());
  }
}

TEST(AstPrinterTest, Fig6StyleOutput) {
  // The printed AST of Listing 3 must contain one nest per statement, each
  // with a pipeline loop and a task annotation (cf. Fig. 6).
  scop::Scop scop = testing::listing3(16);
  Ast ast = buildFor(scop);
  std::string text = printAst(ast, scop);
  for (const char* needle :
       {"loop nest of statement S", "loop nest of statement R",
        "loop nest of statement U", "// pipeline loop", "// task",
        "in-dep", "out-dep"})
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << text;
  // Three pipeline loops, one per nest.
  std::size_t count = 0, pos = 0;
  while ((pos = text.find("// pipeline loop", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 3u);
}

TEST(AstPrinterTest, AnnotatedSourceCarriesOpenMPStructure) {
  scop::Scop scop = testing::listing3(16);
  Ast ast = buildFor(scop);
  std::string text = printAnnotatedSource(ast, scop);
  for (const char* needle :
       {"#pragma omp parallel", "#pragma omp single", "#pragma omp task",
        "depend(out: dep_S", "depend(in: dep_S[Q_R^S", "depend(in: dep_R",
        "funcCount", "/* pipeline loop */", "U_block(c0..c1);"})
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << text;
}

TEST(AstPrinterTest, AnnotatedSourceOmitsFuncCountWhenRelaxed) {
  scop::Scop scop = testing::listing1(12);
  pipeline::DetectOptions opt;
  opt.relaxSameNestOrdering = true;
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
  auto tree = sched::buildPipelineSchedule(scop, info);
  Ast ast = buildAst(scop, *tree);
  std::string text = printAnnotatedSource(ast, scop);
  EXPECT_EQ(text.find("funcCount"), std::string::npos) << text;
}

TEST(AstPrinterTest, SingleStatementScop) {
  scop::ScopBuilder b("solo");
  std::size_t A = b.array("A", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  scop::Scop scop = b.build();
  Ast ast = buildFor(scop);
  ASSERT_EQ(ast.nests.size(), 1u);
  EXPECT_EQ(ast.nests[0].blockReps.size(), 1u);
  std::string text = printAst(ast, scop);
  EXPECT_NE(text.find("1 blocks"), std::string::npos);
}

} // namespace
} // namespace pipoly::ast
