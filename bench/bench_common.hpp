#pragma once

// Shared helpers for the paper-reproduction benchmark binaries: cost
// calibration (real measurements on this host feeding the machine
// simulator), fixed-width table printing, machine-readable BENCH_*.json
// emission (the bench_detect --json schema) and synthetic map inputs.

#include "presburger/map.hpp"
#include "sim/simulator.hpp"
#include "support/stopwatch.hpp"
#include "tasking/tasking.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace pipoly::bench {

/// Measures the per-task overhead (seconds) of spawning and running empty
/// tasks through the thread-pool backend; used as the simulator's
/// task-dispatch cost.
inline double measureTaskOverhead() {
  constexpr int kTasks = 2000;
  auto layer = tasking::makeThreadPoolBackend(4);
  auto noop = +[](void*) {};
  int dummy = 0;
  // Warm-up region.
  layer->run([&] {
    for (int i = 0; i < 100; ++i)
      layer->createTask(noop, &dummy, sizeof(dummy), i, 0, nullptr, nullptr,
                        0);
  });
  Stopwatch sw;
  layer->run([&] {
    for (int i = 0; i < kTasks; ++i)
      layer->createTask(noop, &dummy, sizeof(dummy), i, 0, nullptr, nullptr,
                        0);
  });
  return sw.seconds() / kTasks;
}

/// Measures the extra per-task cost (seconds) of carrying one in-dependency
/// through the thread-pool backend: a chain of dependent empty tasks against
/// the independent-task baseline. Feeds CostModel::dependOverhead so the
/// simulator can price depend-list length.
inline double measureDependOverhead() {
  constexpr int kTasks = 2000;
  auto layer = tasking::makeThreadPoolBackend(4);
  auto noop = +[](void*) {};
  int dummy = 0;
  auto spawnChain = [&](bool chained) {
    layer->run([&] {
      for (int i = 0; i < kTasks; ++i) {
        std::int64_t dep = i - 1;
        int depIdx = 0;
        const bool withDep = chained && i > 0;
        layer->createTask(noop, &dummy, sizeof(dummy), i, 0,
                          withDep ? &dep : nullptr,
                          withDep ? &depIdx : nullptr, withDep ? 1 : 0);
      }
    });
  };
  spawnChain(true); // warm-up
  Stopwatch indepWatch;
  spawnChain(false);
  const double indep = indepWatch.seconds();
  Stopwatch chainWatch;
  spawnChain(true);
  const double chain = chainWatch.seconds();
  return std::max(0.0, (chain - indep) / kTasks);
}

/// Fixed-width table printer.
class Table {
public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void addRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> width(header_.size());
    auto widen = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size() && i < width.size(); ++i)
        width[i] = std::max(width[i], row[i].size());
    };
    widen(header_);
    for (const auto& row : rows_)
      widen(row);
    auto printRow = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i)
        std::printf("%-*s  ", static_cast<int>(width[i]), row[i].c_str());
      std::printf("\n");
    };
    printRow(header_);
    for (const auto& row : rows_)
      printRow(row);
  }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Machine-readable benchmark output, following the bench_detect --json
/// shape: a flat object of run metadata plus a "programs" array with one
/// object per suite program. Field order is insertion order, so reruns
/// diff cleanly. Values are stored as already-rendered JSON fragments;
/// use the num()/str() helpers.
class JsonReport {
public:
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  static std::string num(std::uint64_t v) { return std::to_string(v); }
  static std::string str(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\')
        out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  /// Top-level metadata field (value must be a rendered JSON fragment).
  void meta(const std::string& key, const std::string& jsonValue) {
    meta_.emplace_back(key, jsonValue);
  }

  /// Starts the next entry of the "programs" array.
  void beginProgram(const std::string& name) {
    programs_.emplace_back();
    field("name", str(name));
  }
  /// Adds a field to the current program entry.
  void field(const std::string& key, const std::string& jsonValue) {
    programs_.back().emplace_back(key, jsonValue);
  }

  /// Writes the report; prints "<tool>: wrote '<path>'" or an error.
  /// Returns false (and prints to stdout) when the file cannot be opened.
  bool write(const char* tool, const std::string& path) const {
    std::ofstream out(path);
    if (!out.good()) {
      std::printf("%s: cannot write '%s'\n", tool, path.c_str());
      return false;
    }
    out << "{\n";
    for (const auto& [key, value] : meta_)
      out << "  \"" << key << "\": " << value << ",\n";
    out << "  \"programs\": [\n";
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      out << "    {";
      for (std::size_t f = 0; f < programs_[p].size(); ++f)
        out << (f ? ", " : "") << '"' << programs_[p][f].first
            << "\": " << programs_[p][f].second;
      out << '}' << (p + 1 < programs_.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    std::printf("%s: wrote '%s'\n", tool, path.c_str());
    return true;
  }

private:
  using Fields = std::vector<std::pair<std::string, std::string>>;
  Fields meta_;
  std::vector<Fields> programs_;
};

/// { x -> f(x) : x in domain }: a synthetic single-valued map input.
inline pb::IntMap mapOf(const pb::IntTupleSet& domain, pb::Space out,
                        pb::Tuple (*f)(const pb::Tuple&)) {
  std::vector<pb::IntMap::Pair> pairs;
  pairs.reserve(domain.size());
  for (const pb::Tuple x : domain.points())
    pairs.emplace_back(x, f(x));
  return pb::IntMap(domain.space(), std::move(out), std::move(pairs));
}

} // namespace pipoly::bench
