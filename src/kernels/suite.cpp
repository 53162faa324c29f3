#include "kernels/suite.hpp"

#include "scop/builder.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"

#include <algorithm>

namespace pipoly::kernels {

const std::vector<ProgramSpec>& table9Programs() {
  // Read patterns: {source nest, (r0i, r0j, r0c), (r1i, r1j, r1c)} means
  // "reads A_source[r0i*i + r0j*j + r0c][r1i*i + r1j*j + r1c]".
  static const std::vector<ProgramSpec> programs = {
      // P1: 2 nests, num1,2 = 1; S2 <- A1[i][j].
      {"P1", {1, 1}, {{}, {{0, 1, 0, 0, 0, 1, 0}}}},
      // P2: 2 nests, num1 = 2, num2 = 6; S2 <- A1[2i][2j].
      {"P2", {2, 6}, {{}, {{0, 2, 0, 0, 0, 2, 0}}}},
      // P3: 3 nests, num1,2,3 = 1; S2,S3 <- A1[i][j]; S3 <- A2[i][j].
      {"P3",
       {1, 1, 1},
       {{},
        {{0, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 0, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 1, 0}}}},
      // P4: 3 nests, num1,2 = 2, num3 = 8; S2 <- A1[i+j][j];
      // S3 <- A1[2i+j][2j] [reconstructed], A2[2i][2j].
      {"P4",
       {2, 2, 8},
       {{},
        {{0, 1, 1, 0, 0, 1, 0}},
        {{0, 2, 1, 0, 0, 2, 0}, {1, 2, 0, 0, 0, 2, 0}}}},
      // P5: 4 nests, num = 1 everywhere; S2,S3,S4 <- A1[i][j];
      // S3,S4 <- A2[i][j]; S4 <- A3[i][j].
      {"P5",
       {1, 1, 1, 1},
       {{},
        {{0, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 0, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 0, 0, 0, 1, 0},
         {1, 1, 0, 0, 0, 1, 0},
         {2, 1, 0, 0, 0, 1, 0}}}},
      // P6: 4 nests, num1 = 1, num2 = 8, num3,4 = 32;
      // S2,S3,S4 <- A1[i+j][j] [reconstructed]; S3,S4 <- A2[i][j];
      // S4 <- A3[i][j].
      {"P6",
       {1, 8, 32, 32},
       {{},
        {{0, 1, 1, 0, 0, 1, 0}},
        {{0, 1, 1, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 1, 0, 0, 1, 0},
         {1, 1, 0, 0, 0, 1, 0},
         {2, 1, 0, 0, 0, 1, 0}}}},
      // P7: 4 nests, num1 = 1, num2,3,4 = 8; S2,S3 <- A1[2i][2j];
      // S3 <- A2[2i][2j]; S4 <- A1[i][j], A2[i][j].
      {"P7",
       {1, 8, 8, 8},
       {{},
        {{0, 2, 0, 0, 0, 2, 0}},
        {{0, 2, 0, 0, 0, 2, 0}, {1, 2, 0, 0, 0, 2, 0}},
        {{0, 1, 0, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 1, 0}}}},
      // P8: 4 nests, num = 1 everywhere; S2,S3 <- A1[i][j];
      // S4 <- A1[i][j], A3[i][j] [reconstructed].
      {"P8",
       {1, 1, 1, 1},
       {{},
        {{0, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 0, 0, 0, 1, 0}},
        {{0, 1, 0, 0, 0, 1, 0}, {2, 1, 0, 0, 0, 1, 0}}}},
      // P9: 4 nests, num = 1 everywhere; S2,S4 <- A1[i][2j];
      // S3 <- A1[i][j], A2[i][2j]; S4 <- A3[i][j] [reconstructed].
      {"P9",
       {1, 1, 1, 1},
       {{},
        {{0, 1, 0, 0, 0, 2, 0}},
        {{0, 1, 0, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 2, 0}},
        {{0, 1, 0, 0, 0, 2, 0}, {2, 1, 0, 0, 0, 1, 0}}}},
      // P10: 4 nests, num1 = 1, num2,3,4 = 2; S2 <- A1[i+j][j];
      // S3 <- A2[i][j]; S4 <- A3[i][j].
      {"P10",
       {1, 2, 2, 2},
       {{},
        {{0, 1, 1, 0, 0, 1, 0}},
        {{1, 1, 0, 0, 0, 1, 0}},
        {{2, 1, 0, 0, 0, 1, 0}}}},
  };
  return programs;
}

const ProgramSpec& programByName(const std::string& name) {
  for (const ProgramSpec& p : table9Programs())
    if (p.name == name)
      return p;
  PIPOLY_UNREACHABLE("unknown Table-9 program " + name);
}

namespace {

std::string renderSubscript(int ci, int cj, int c) {
  std::string out;
  auto term = [&](int coeff, const char* var) {
    if (coeff == 0)
      return;
    if (!out.empty())
      out += "+";
    if (coeff != 1)
      out += std::to_string(coeff) + "*";
    out += var;
  };
  term(ci, "i");
  term(cj, "j");
  if (c != 0 || out.empty()) {
    if (!out.empty() && c > 0)
      out += "+";
    if (c != 0 || out.empty())
      out += std::to_string(c);
  }
  return out;
}

} // namespace

std::string describeProgram(const ProgramSpec& spec) {
  std::string out = spec.name + ": " + std::to_string(spec.nums.size()) +
                    " for-loops, num = {";
  for (std::size_t k = 0; k < spec.nums.size(); ++k)
    out += (k ? ", " : "") + std::to_string(spec.nums[k]);
  out += "}\n";
  for (std::size_t k = 0; k < spec.reads.size(); ++k) {
    for (const ReadPattern& r : spec.reads[k])
      out += "  S" + std::to_string(k + 1) + " <- A" +
             std::to_string(r.source + 1) + "[" +
             renderSubscript(r.r0i, r.r0j, r.r0c) + "][" +
             renderSubscript(r.r1i, r.r1j, r.r1c) + "]\n";
  }
  return out;
}

namespace {

pb::Value nestBoundForSource(const std::vector<ReadPattern>& reads,
                             pb::Value n,
                             const std::vector<pb::Value>& sourceBounds);

} // namespace

std::string renderProgramSource(const ProgramSpec& spec, pb::Value n) {
  std::string out = "// " + spec.name + " of Table 9, N = " +
                    std::to_string(n) + "\n";
  const std::size_t nests = spec.nums.size();
  for (std::size_t k = 0; k < nests; ++k)
    out += "array A" + std::to_string(k + 1) + "[" + std::to_string(n) +
           "][" + std::to_string(n) + "];\n";

  std::vector<pb::Value> bounds;
  for (std::size_t k = 0; k < nests; ++k) {
    const pb::Value bound = nestBoundForSource(spec.reads[k], n, bounds);
    bounds.push_back(bound);
    const std::string self = indexedName("A", k + 1);
    out += "for (i = 0; i < " + std::to_string(bound) + "; i++)\n";
    out += "  for (j = 0; j < " + std::to_string(bound) + "; j++)\n";
    out += "    S" + std::to_string(k + 1) + ": " + self + "[i][j] = f" +
           std::to_string(spec.nums[k]) + "(" + self + "[i][j], " + self +
           "[i][j+1], " + self + "[i+1][j+1]";
    for (const ReadPattern& r : spec.reads[k]) {
      auto sub = [](int ci, int cj, int c) {
        std::string s;
        if (ci)
          s += (ci != 1 ? std::to_string(ci) + "*" : "") + std::string("i");
        if (cj) {
          if (!s.empty())
            s += " + ";
          s += (cj != 1 ? std::to_string(cj) + "*" : "") + std::string("j");
        }
        if (c || s.empty()) {
          if (!s.empty())
            s += " + ";
          s += std::to_string(c);
        }
        return s;
      };
      out += ", A" + std::to_string(r.source + 1) + "[" +
             sub(r.r0i, r.r0j, r.r0c) + "][" + sub(r.r1i, r.r1j, r.r1c) +
             "]";
    }
    out += ");\n";
  }
  return out;
}

namespace {

/// Largest square bound B (domain [0,B) per dim) of nest `k` so that all
/// its reads stay inside N x N source arrays whose writers cover
/// [0, sourceBound) per dim. The self reads A_k[i][j] and A_k[i+1][j+1]
/// additionally require B <= N - 1.
pb::Value nestBoundForSource(const std::vector<ReadPattern>& reads, pb::Value n,
                    const std::vector<pb::Value>& sourceBounds) {
  pb::Value bound = n - 1; // self read [i+1][j+1] within an N x N array
  for (const ReadPattern& r : reads) {
    // Reading beyond what the source nest wrote would consume
    // uninitialised data; keep reads within the written region.
    const pb::Value srcExtent = sourceBounds.at(r.source);
    for (auto [ci, cj, c] : {std::tuple{r.r0i, r.r0j, r.r0c},
                             std::tuple{r.r1i, r.r1j, r.r1c}}) {
      const pb::Value sum = ci + cj;
      if (sum <= 0)
        continue;
      // ci*(B-1) + cj*(B-1) + c <= srcExtent - 1.
      bound = std::min(bound, (srcExtent - 1 - c) / sum + 1);
    }
  }
  PIPOLY_CHECK_MSG(bound >= 2, "N too small for this program's patterns");
  return bound;
}

} // namespace

std::vector<pb::Value> nestBounds(const ProgramSpec& spec, pb::Value n) {
  PIPOLY_CHECK(spec.nums.size() == spec.reads.size());
  std::vector<pb::Value> bounds;
  bounds.reserve(spec.nums.size());
  for (std::size_t k = 0; k < spec.nums.size(); ++k)
    bounds.push_back(nestBoundForSource(spec.reads[k], n, bounds));
  return bounds;
}

scop::Scop buildProgram(const ProgramSpec& spec, pb::Value n) {
  PIPOLY_CHECK(spec.nums.size() == spec.reads.size());
  const std::size_t nests = spec.nums.size();

  scop::ScopBuilder b(spec.name);
  std::vector<std::size_t> arrays;
  arrays.reserve(nests);
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array(indexedName("A", k + 1), {n, n}));

  std::vector<pb::Value> bounds;
  for (std::size_t k = 0; k < nests; ++k) {
    const pb::Value bound = nestBoundForSource(spec.reads[k], n, bounds);
    bounds.push_back(bound);

    auto S = b.statement(indexedName("S", k + 1), 2);
    S.bound(0, 0, bound).bound(1, 0, bound);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    // Serial self accesses, as in Listing 1: A[i][j+1] carries the inner
    // dimension, A[i+1][j+1] the outer one — Polly can parallelize neither.
    S.read(arrays[k], {S.dim(0), S.dim(1)});
    S.read(arrays[k], {S.dim(0), S.dim(1) + 1});
    S.read(arrays[k], {S.dim(0) + 1, S.dim(1) + 1});
    for (const ReadPattern& r : spec.reads[k]) {
      S.read(arrays[r.source],
             {r.r0i * S.dim(0) + r.r0j * S.dim(1) + r.r0c,
              r.r1i * S.dim(0) + r.r1j * S.dim(1) + r.r1c});
    }
  }
  return b.build();
}

} // namespace pipoly::kernels
