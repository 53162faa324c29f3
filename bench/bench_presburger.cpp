// Presburger-op benchmark with machine-readable output: times the flat
// core's merge/gallop kernels (unite, compose) on
// synthetic inputs of 10^3 .. 10^6 points and writes BENCH_presburger.json
// for trend tracking, mirroring bench_detect's BENCH_detect.json.
//
// Usage: bench_presburger [--quick] [--json=FILE]
//   --quick      stop at 10^5 points (CI-friendly)
//   --json=FILE  output path (default BENCH_presburger.json)

#include "bench_common.hpp"
#include "presburger/map.hpp"
#include "presburger/set.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pipoly;
using Clock = std::chrono::steady_clock;

double bestOfMs(int reps, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0)
                              .count());
  }
  return best;
}

pb::IntTupleSet gridSet(pb::Value count, pb::Value offset) {
  const auto side =
      static_cast<pb::Value>(std::ceil(std::sqrt(static_cast<double>(count))));
  std::vector<pb::Tuple> pts;
  pts.reserve(static_cast<std::size_t>(count));
  for (pb::Value i = 0; i < count; ++i)
    pts.push_back(pb::Tuple{offset + i / side, offset + i % side});
  return pb::IntTupleSet(pb::Space("G", 2), std::move(pts));
}

struct Row {
  const char* op;
  long points;
  double ms;
};

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string jsonPath = "BENCH_presburger.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick")
      quick = true;
    else if (arg.rfind("--json=", 0) == 0)
      jsonPath = arg.substr(7);
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--json=FILE]\n", argv[0]);
      return 2;
    }
  }

  std::vector<long> sizes = {1000, 10000, 100000};
  if (!quick)
    sizes.push_back(1000000);

  std::vector<Row> rows;
  std::printf("%-18s %10s %12s\n", "op", "points", "best ms");
  for (long n : sizes) {
    const auto count = static_cast<pb::Value>(n);
    const int reps = n >= 1000000 ? 3 : 7;

    const pb::IntTupleSet a = gridSet(count, 0);
    const pb::IntTupleSet b = gridSet(
        count,
        static_cast<pb::Value>(std::sqrt(static_cast<double>(count)) / 2));
    const pb::IntMap inner = bench::mapOf(
        a, pb::Space("M", 2),
        [](const pb::Tuple& t) { return pb::Tuple{t[1], t[0]}; });
    const pb::IntMap outer = bench::mapOf(
        inner.range(), pb::Space("O", 2),
        [](const pb::Tuple& t) { return pb::Tuple{t[0] + t[1], t[0]}; });

    const Row results[] = {
        {"unite", n, bestOfMs(reps, [&] { volatile auto s = a.unite(b).size(); (void)s; })},
        {"compose", n, bestOfMs(reps, [&] { volatile auto s = outer.compose(inner).size(); (void)s; })},
    };
    for (const Row& r : results) {
      std::printf("%-18s %10ld %12.4f\n", r.op, r.points, r.ms);
      rows.push_back(r);
    }
  }

  if (std::FILE* f = std::fopen(jsonPath.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"presburger\",\n  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f, "    {\"op\": \"%s\", \"points\": %ld, \"ms\": %.6f}%s\n",
                   rows[i].op, rows[i].points, rows[i].ms,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", jsonPath.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  return 0;
}
