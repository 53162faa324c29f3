#pragma once

// Semantic verification oracle. Executes a SCoP with "interpreted"
// statement bodies: each dynamic instance hash-combines the values it
// reads (per the declared accesses) with its statement id and iteration
// vector and stores the result at its write locations. Any dependence
// violation in a parallel run perturbs the final contents with
// overwhelming probability, so fingerprint equality against the
// sequential execution is a strong end-to-end correctness check for a
// compiled task program — usable by downstream integrations, the test
// suite and pipolyc's --verify.

#include "codegen/task_program.hpp"
#include "scop/scop.hpp"
#include "tasking/executor.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pipoly::verify {

class InterpretedKernel {
public:
  explicit InterpretedKernel(const scop::Scop& scop);

  /// Re-initialises every array element deterministically.
  void reset();

  /// Executes one dynamic instance (thread-safe across instances that are
  /// independent under the declared accesses).
  void execute(std::size_t stmtIdx, const pb::Tuple& iteration);

  tasking::StatementExecutor executor() {
    return [this](std::size_t stmtIdx, const pb::Tuple& it) {
      execute(stmtIdx, it);
    };
  }

  /// Fingerprint of all array contents.
  std::uint64_t fingerprint() const;

private:
  template <typename Fn>
  void forEachElement(const scop::Access& access, const pb::Tuple& iteration,
                      Fn&& fn);
  static std::size_t flatten(const scop::Array& arr, const pb::Tuple& subs);

  const scop::Scop* scop_;
  std::vector<std::vector<std::uint64_t>> arrays_;
};

/// Fingerprint after a plain sequential run.
std::uint64_t sequentialFingerprint(const scop::Scop& scop);

struct VerifyResult {
  bool ok = false;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
  std::string backend;
};

/// One execution of the compiled program with the given statement
/// executor (a TaskingLayer run, a ChannelPipeline replay, ...).
using Execution = std::function<void(const tasking::StatementExecutor&)>;

/// Runs `run` with interpreted bodies and compares against the
/// sequential execution; `backend` names the route in the result.
/// `repetitions` > 1 re-runs the parallel execution to better expose
/// races; `actual` is the first mismatching fingerprint (the last one
/// when every run matched).
VerifyResult selfCheck(const scop::Scop& scop, std::string backend,
                       const Execution& run, int repetitions = 1);

/// selfCheck of `program` executed on `layer`.
VerifyResult selfCheck(const scop::Scop& scop,
                       const codegen::TaskProgram& program,
                       tasking::TaskingLayer& layer, int repetitions = 1);

} // namespace pipoly::verify
