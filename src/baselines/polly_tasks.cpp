#include "baselines/polly_tasks.hpp"

#include "scop/dependences.hpp"
#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::baselines {

codegen::TaskProgram pollyTaskProgram(const scop::Scop& scop,
                                      unsigned threads) {
  PIPOLY_CHECK(threads >= 1);
  codegen::TaskProgram prog;
  prog.numStatements = scop.numStatements();
  prog.chainOrdering = false; // chunks of one nest run concurrently

  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    prog.rowTables.push_back(scop.statement(s).domain());

  std::vector<codegen::TaskDep> previousNest;
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const scop::Statement& stmt = scop.statement(s);
    const auto& points = stmt.domain().points();

    // Chunk boundaries over the outermost parallel dimension (whole
    // domain as a single chunk when the nest is serial). Chunks must be
    // splits at changes of the parallel dim's coordinate so that no
    // dependence crosses chunks.
    std::vector<bool> parallel = scop::parallelDims(scop, s);
    std::vector<std::pair<std::size_t, std::size_t>> chunks; // [begin,end)
    auto outermost = std::find(parallel.begin(), parallel.end(), true);
    if (outermost == parallel.end() || threads == 1) {
      chunks.emplace_back(0, points.size());
    } else {
      const auto dim =
          static_cast<std::size_t>(outermost - parallel.begin());
      PIPOLY_CHECK_MSG(dim == 0,
                       "Polly-like chunking expects the outermost "
                       "dimension to be the parallel one");
      // Distinct leading coordinates, split into <= threads groups.
      std::vector<std::size_t> rowStarts{0};
      for (std::size_t k = 1; k < points.size(); ++k)
        if (points[k][0] != points[k - 1][0])
          rowStarts.push_back(k);
      const std::size_t rows = rowStarts.size();
      const std::size_t ways = std::min<std::size_t>(threads, rows);
      for (std::size_t c = 0; c < ways; ++c) {
        const std::size_t loRow = c * rows / ways;
        const std::size_t hiRow = (c + 1) * rows / ways;
        const std::size_t begin = rowStarts[loRow];
        const std::size_t end =
            hiRow == rows ? points.size() : rowStarts[hiRow];
        chunks.emplace_back(begin, end);
      }
    }

    std::vector<codegen::TaskDep> thisNest;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      codegen::Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = s;
      task.iterations = codegen::IterationRange(
          prog.rowTables[s], chunks[c].first, chunks[c].second);
      PIPOLY_CHECK(!task.iterations.empty());
      task.blockRep = task.iterations.back();
      task.out = codegen::TaskDep{
          static_cast<int>(s), codegen::linearizeBlockVector(task.blockRep),
          false, static_cast<std::uint32_t>(task.id)};
      task.in = previousNest; // full barrier between nests
      thisNest.push_back(task.out);
      prog.tasks.push_back(std::move(task));
    }
    previousNest = std::move(thisNest);
  }

  // writeNum: statements feeding later statements.
  std::vector<bool> isSource(scop.numStatements(), false);
  for (std::size_t t = 0; t < scop.numStatements(); ++t)
    for (std::size_t s = 0; s < t; ++s)
      if (scop::dependsOn(scop, t, s))
        isSource[s] = true;
  prog.writeNum = static_cast<std::size_t>(
      std::count(isSource.begin(), isSource.end(), true));
  return prog;
}

} // namespace pipoly::baselines
