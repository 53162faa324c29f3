#include "sim/calibrate.hpp"

#include "support/stopwatch.hpp"

#include <algorithm>

namespace pipoly::sim {

namespace {

constexpr std::size_t kSamplesPerStatement = 64;
constexpr int kRepetitions = 3;

} // namespace

CostModel calibrate(const scop::Scop& scop,
                    const tasking::StatementExecutor& exec) {
  CostModel model;
  model.iterationCost.reserve(scop.numStatements());

  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const auto& points = scop.statement(s).domain().points();
    // Evenly spread sample of the domain.
    std::vector<pb::Tuple> sample;
    const std::size_t count = std::min(kSamplesPerStatement, points.size());
    for (std::size_t k = 0; k < count; ++k)
      sample.push_back(points[k * points.size() / count]);

    // Warm-up pass, then timed repetitions.
    for (const pb::Tuple& it : sample)
      exec(s, it);
    Stopwatch sw;
    for (int rep = 0; rep < kRepetitions; ++rep)
      for (const pb::Tuple& it : sample)
        exec(s, it);
    model.iterationCost.push_back(
        sw.seconds() /
        (static_cast<double>(kRepetitions) *
         static_cast<double>(sample.size())));
  }
  return model;
}

} // namespace pipoly::sim
