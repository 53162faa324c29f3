// Fuzz tests for the two parsers (the test-side isl-style set/map parser
// and the mini-C frontend): malformed input of any shape must raise
// pipoly::Error, never crash or hang.

#include "frontend/frontend.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "testing/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pipoly {
namespace {

// ---------------------------------------------------------------------
// Parser fuzzing
// ---------------------------------------------------------------------

std::string randomGarbage(SplitMix64& rng, std::size_t length) {
  static constexpr char alphabet[] =
      "{}[]()<>=+-*/;:, \n\tfor paramarray0123456789ijkNXYZ_S";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(alphabet[rng.nextBelow(sizeof(alphabet) - 1)]);
  return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, SetParserNeverCrashes) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::string input = randomGarbage(rng, 1 + rng.nextBelow(60));
    try {
      (void)pb::parseSet(input);
    } catch (const Error&) {
      // expected for garbage
    }
  }
}

TEST_P(ParserFuzzTest, FrontendNeverCrashes) {
  SplitMix64 rng(GetParam() ^ 0x5a5a);
  for (int round = 0; round < 50; ++round) {
    std::string input = randomGarbage(rng, 1 + rng.nextBelow(120));
    try {
      (void)frontend::parseProgram(input);
    } catch (const Error&) {
      // expected for garbage
    }
  }
}

TEST_P(ParserFuzzTest, FrontendMutationsOfValidProgram) {
  // Start from a valid program and flip random characters: every mutation
  // must either parse or throw Error.
  static const std::string valid = R"(
    param N = 8;
    array A[N][N];
    array B[N][N];
    for (i = 0; i < N - 1; i++)
      for (j = 0; j < N - 1; j++)
        S: A[i][j] = f(A[i][j+1]);
    for (i = 0; i < N - 1; i++)
      for (j = 0; j < N - 1; j++)
        R: B[i][j] = g(A[i][j], B[i][j+1]);
  )";
  SplitMix64 rng(GetParam() ^ 0xc0ffee);
  for (int round = 0; round < 40; ++round) {
    std::string mutated = valid;
    const std::size_t flips = 1 + rng.nextBelow(4);
    for (std::size_t k = 0; k < flips; ++k)
      mutated[rng.nextBelow(mutated.size())] =
          "{}[]()+-*/;:x5"[rng.nextBelow(14)];
    try {
      (void)frontend::parseProgram(mutated);
    } catch (const Error&) {
      // fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace pipoly
