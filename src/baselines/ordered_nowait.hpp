#pragma once

// The restricted pipelined-multithreading baseline the paper contrasts
// with in §2 (Razanajato et al. [40]): pipelining via OpenMP `ordered` +
// `nowait` between consecutive parallelized loop nests. Per the paper,
// that technique applies only when
//
//   (1) the considered nests have identical iteration domains (and chunk
//       sizes), and
//   (2) each iteration of the target depends only on the same or earlier
//       iterations of its source (a lexicographically non-positive...
//       i.e. non-forward dependence pattern).
//
// This module implements the *applicability test*, which shows where the
// paper's general task-based approach wins simply by being applicable.

#include "scop/scop.hpp"

#include <string>

namespace pipoly::baselines {

struct OrderedNowaitApplicability {
  bool applicable = false;
  std::string reason; // why not, when !applicable
};

/// Checks conditions (1) and (2) for every dependent pair of consecutive
/// nests in the SCoP.
OrderedNowaitApplicability
orderedNowaitApplicable(const scop::Scop& scop);

} // namespace pipoly::baselines
