#include "baselines/ordered_nowait.hpp"

#include "scop/dependences.hpp"

namespace pipoly::baselines {

OrderedNowaitApplicability orderedNowaitApplicable(const scop::Scop& scop) {
  for (std::size_t t = 1; t < scop.numStatements(); ++t) {
    for (std::size_t s = 0; s < t; ++s) {
      pb::IntMap flow = scop::flowDependences(scop, s, t);
      if (flow.empty())
        continue;
      if (t != s + 1)
        return {false, "dependence skips a nest (" +
                           scop.statement(s).name() + " -> " +
                           scop.statement(t).name() +
                           "), but ordered/nowait chains consecutive "
                           "nests only"};
      // Condition (1): identical iteration domains.
      if (scop.statement(s).domain().points() !=
          scop.statement(t).domain().points())
        return {false, "nests " + scop.statement(s).name() + " and " +
                           scop.statement(t).name() +
                           " have different iteration domains"};
      // Condition (2): target iteration depends only on same-or-earlier
      // source iterations.
      for (const auto& [i, j] : flow.pairs())
        if (i > j)
          return {false, "iteration " + j.toString() + " of " +
                             scop.statement(t).name() +
                             " depends on the later iteration " +
                             i.toString() + " of " +
                             scop.statement(s).name()};
    }
  }
  return {true, ""};
}

} // namespace pipoly::baselines
