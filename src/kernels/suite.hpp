#pragma once

// The paper's first benchmark set (Table 9 / Fig. 10): programs P1–P10,
// each a sequence of 2–4 serial depth-2 loop nests calling the
// compute-intensive kernel. Statement S_k writes its own N x N matrix
// A_k[i][j] and reads earlier matrices with the per-program affine
// patterns of Table 9; every statement also reads its own A_k[i][j+...]
// neighbourhood so that no loop dimension is parallelizable (the paper:
// "Polly cannot parallelize the loops").
//
// NOTE on fidelity: the Memory-access column of Table 9 is partially
// garbled in the available text. The nest counts and num values are
// verbatim; read patterns marked [reconstructed] below were restored from
// the legible fragments to preserve each program's dependence shape
// (which source feeds which statement, and with which affine stride).

#include "scop/scop.hpp"

#include <string>
#include <vector>

namespace pipoly::kernels {

/// One cross-nest read: statement `target` reads
/// A_source[r0i*i + r0j*j + r0c][r1i*i + r1j*j + r1c].
struct ReadPattern {
  std::size_t source; // 0-based nest index
  int r0i, r0j, r0c;  // first subscript
  int r1i, r1j, r1c;  // second subscript
};

struct ProgramSpec {
  std::string name;
  std::vector<int> nums;              // per-nest `num` (Table 9)
  std::vector<std::vector<ReadPattern>> reads; // per-nest cross reads
};

/// The ten programs of Table 9.
const std::vector<ProgramSpec>& table9Programs();

/// Instantiates a Table-9 program as a SCoP with parameter N (arrays are
/// N x N; per-nest bounds shrink so every read stays in bounds, as the
/// paper sets "lower and upper bounds of the loops accordingly").
scop::Scop buildProgram(const ProgramSpec& spec, pb::Value n);

/// The per-nest square bounds buildProgram(spec, n) uses: each nest's
/// domain is [0, B_k)^2 with B_k clipped so every read stays inside the
/// written region of its source nest.
std::vector<pb::Value> nestBounds(const ProgramSpec& spec, pb::Value n);

/// Looks a program up by name ("P1".."P10").
const ProgramSpec& programByName(const std::string& name);

/// Renders the Table-9-style description of one program (specification
/// column: nest count and num values; memory-access column: the cross
/// reads of every statement).
std::string describeProgram(const ProgramSpec& spec);

/// Renders a program as source in the pipolyc loop-nest dialect
/// (docs/FORMAT.md): parsing the result through the frontend yields the
/// same SCoP as buildProgram(spec, n). The per-nest bounds are emitted as
/// literals (the dialect has no general min/div arithmetic).
std::string renderProgramSource(const ProgramSpec& spec, pb::Value n);

} // namespace pipoly::kernels
