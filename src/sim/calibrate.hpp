#pragma once

// Cost-model calibration: measures the average per-iteration wall-clock
// cost of each statement by sampling real executions of its instances.
// This is how the benchmark harnesses turn real kernels into simulator
// cost models; exposed as an API so downstream users can do the same for
// their own statement bodies.

#include "scop/scop.hpp"
#include "sim/simulator.hpp"

#include <functional>

namespace pipoly::sim {

/// Runs up to 64 instances of every statement (spread evenly over its
/// domain) through `exec`, once to warm up and three more times under the
/// clock, and returns a CostModel with the per-iteration cost of the
/// fastest timed pass (one stopwatch reading per pass). The
/// executor is invoked on real domain points, so statement bodies with
/// data-dependent cost are averaged over a representative spread.
/// `taskOverhead` is left at 0; combine with bench-style overhead
/// measurement if needed. `exec` has tasking::StatementExecutor's
/// signature, spelled out so that sim does not depend on tasking (the
/// replay executor prices its route choice with sim::simulate).
CostModel calibrate(
    const scop::Scop& scop,
    const std::function<void(std::size_t, const pb::Tuple&)>& exec);

} // namespace pipoly::sim
