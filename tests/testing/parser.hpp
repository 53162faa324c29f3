#pragma once

// A small parser for isl-like set/map notation, for tests (nothing under
// src/ parses set text):
//
//   parseSet("{ S[i,j] : 0 <= i < N and 0 <= j <= i }", {{"N", 8}})
//   parseMap("{ S[i,j] -> A[i, 2*j] : 0 <= i < 4 and 0 <= j < 4 }", {})
//
// Conditions are conjunctions of (possibly chained) affine comparisons over
// the tuple variables and the provided parameter bindings. The described
// region must be bounded; the parser enumerates its integer points into an
// explicit IntTupleSet / IntMap.

#include "presburger/map.hpp"
#include "presburger/set.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace pipoly::pb {

using ParamBindings = std::map<std::string, Value>;

IntTupleSet parseSet(std::string_view text, const ParamBindings& params = {});
IntMap parseMap(std::string_view text, const ParamBindings& params = {});

} // namespace pipoly::pb
