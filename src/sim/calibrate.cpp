#include "sim/calibrate.hpp"

#include "support/stopwatch.hpp"

#include <algorithm>
#include <limits>

namespace pipoly::sim {

namespace {

constexpr std::size_t kSamplesPerStatement = 64;
constexpr int kRepetitions = 3;

} // namespace

CostModel calibrate(
    const scop::Scop& scop,
    const std::function<void(std::size_t, const pb::Tuple&)>& exec) {
  CostModel model;
  model.iterationCost.reserve(scop.numStatements());

  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const auto& points = scop.statement(s).domain().points();
    // Evenly spread sample of the domain.
    std::vector<pb::Tuple> sample;
    const std::size_t count = std::min(kSamplesPerStatement, points.size());
    for (std::size_t k = 0; k < count; ++k)
      sample.push_back(points[k * points.size() / count]);

    // Warm-up pass, then timed repetitions; the fastest one counts, so
    // a preemption inside one repetition cannot skew the estimate.
    for (const pb::Tuple& it : sample)
      exec(s, it);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kRepetitions; ++rep) {
      Stopwatch sw;
      for (const pb::Tuple& it : sample)
        exec(s, it);
      best = std::min(best, sw.seconds());
    }
    model.iterationCost.push_back(best /
                                  static_cast<double>(sample.size()));
  }
  return model;
}

} // namespace pipoly::sim
