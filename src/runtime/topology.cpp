#include "runtime/topology.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pipoly::rt {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("topology: " + what);
}

/// Even domain-major split of `workers` worker slots over `domains`
/// domains: domain d gets the d-th contiguous chunk, earlier domains one
/// slot larger when the division does not come out even.
std::vector<unsigned> evenSplit(unsigned workers, unsigned domains) {
  std::vector<unsigned> map;
  map.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    map.push_back(domains != 0
                      ? static_cast<unsigned>(
                            (static_cast<std::uint64_t>(w) * domains) /
                            std::max(1u, workers))
                      : 0);
  return map;
}

/// Minimal strict JSON reader — just enough for the topology spec
/// grammar (objects, arrays, numbers, strings), rejecting everything it
/// does not understand with a position-carrying diagnostic. Deliberately
/// not a general JSON library: the spec is tiny and the point is the
/// parse-and-reject contract.
class JsonCursor {
public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c, const char* where) {
    if (!consume(c))
      fail(std::string("expected '") + c + "' " + where + " at offset " +
           std::to_string(pos_));
  }

  std::string parseString() {
    expect('"', "before string");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c == '\\')
        fail("escape sequences are not part of the topology spec grammar");
      out.push_back(c);
    }
    expect('"', "after string");
    return out;
  }

  double parseNumber() {
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (start == pos_)
      fail("expected a number at offset " + std::to_string(start));
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(text_.substr(start, pos_ - start), &used);
    } catch (const std::exception&) {
      fail("malformed number at offset " + std::to_string(start));
    }
    if (used != pos_ - start)
      fail("malformed number at offset " + std::to_string(start));
    return value;
  }

  std::vector<double> parseNumberArray() {
    expect('[', "before array");
    std::vector<double> out;
    if (consume(']'))
      return out;
    do
      out.push_back(parseNumber());
    while (consume(','));
    expect(']', "after array");
    return out;
  }

  std::vector<std::vector<double>> parseNestedArray() {
    expect('[', "before nested array");
    std::vector<std::vector<double>> out;
    if (consume(']'))
      return out;
    do
      out.push_back(parseNumberArray());
    while (consume(','));
    expect(']', "after nested array");
    return out;
  }

  void expectEnd() {
    skipWs();
    if (pos_ != text_.size())
      fail("trailing garbage at offset " + std::to_string(pos_));
  }

private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Integer-valued spec fields (worker ids, cpu ids) must round-trip.
/// Range and integrality are checked on the double: casting a value
/// outside int's range (1e300, -1e300) would be undefined behaviour.
int asIndex(double v, const char* what) {
  if (!(v >= 0.0 && v <= static_cast<double>(INT_MAX)) || std::floor(v) != v)
    fail(std::string(what) + " must be a non-negative integer");
  return static_cast<int>(v);
}

} // namespace

double Topology::costClass(unsigned a, unsigned b) const {
  if (a >= classCost.size() || b >= classCost.size() ||
      b >= classCost[a].size())
    return 1.0;
  return classCost[a][b];
}

bool Topology::uniform() const {
  if (numDomains() <= 1)
    return true;
  const double first = classCost[0][0];
  for (const std::vector<double>& row : classCost)
    for (double c : row)
      if (c != first)
        return false;
  return true;
}

void Topology::validate() const {
  if (classCost.empty())
    fail("no domains (empty cost matrix)");
  for (const std::vector<double>& row : classCost) {
    if (row.size() != classCost.size())
      fail("cost matrix is not square");
    for (double c : row)
      if (!(c > 0.0) || !std::isfinite(c))
        fail("cost classes must be positive finite numbers");
  }
  if (domainOfWorker.empty())
    fail("no worker slots");
  for (unsigned d : domainOfWorker)
    if (d >= numDomains())
      fail("worker mapped to a domain outside the cost matrix");
  if (!cpusOfDomain.empty() && cpusOfDomain.size() != classCost.size())
    fail("cpu lists must cover every domain or be absent");
}

Topology Topology::resized(unsigned workers) const {
  Topology t = *this;
  t.domainOfWorker = evenSplit(std::max(1u, workers), numDomains());
  return t;
}

Topology Topology::uma(unsigned workers) {
  Topology t;
  t.name = "uma";
  t.classCost = {{1.0}};
  t.domainOfWorker.assign(std::max(1u, workers), 0);
  return t;
}

Topology Topology::numa2(unsigned workers, double remoteCost) {
  Topology t;
  t.name = "2x-numa";
  t.classCost = {{1.0, remoteCost}, {remoteCost, 1.0}};
  t.domainOfWorker = evenSplit(std::max(2u, workers), 2);
  return t;
}

Topology Topology::ring(unsigned workers, unsigned domains, double hopCost) {
  PIPOLY_CHECK_MSG(domains >= 1, "ring topology needs at least one domain");
  Topology t;
  t.name = "ring";
  t.classCost.assign(domains, std::vector<double>(domains, 1.0));
  for (unsigned a = 0; a < domains; ++a)
    for (unsigned b = 0; b < domains; ++b) {
      const unsigned forward = (b + domains - a) % domains;
      const unsigned dist = std::min(forward, domains - forward);
      t.classCost[a][b] = 1.0 + hopCost * static_cast<double>(dist);
    }
  t.domainOfWorker = evenSplit(std::max(domains, workers), domains);
  return t;
}

std::optional<Topology> Topology::preset(const std::string& name,
                                         unsigned workers) {
  if (name == "uma")
    return uma(workers);
  if (name == "2x-numa")
    return numa2(workers);
  if (name == "ring")
    return ring(workers);
  return std::nullopt;
}

Topology Topology::detectHost(unsigned workers) {
  // Linux sysfs: one directory per online NUMA node. Reading the files
  // cannot throw into the caller — any irregularity degrades to uma.
#if defined(__linux__)
  try {
    std::vector<std::vector<int>> cpus;
    std::vector<std::vector<double>> distance;
    for (unsigned node = 0; node < 256; ++node) {
      const std::string base =
          "/sys/devices/system/node/node" + std::to_string(node);
      std::ifstream cpulist(base + "/cpulist");
      if (!cpulist.good())
        break;
      std::string list;
      std::getline(cpulist, list);
      std::vector<int> ids;
      std::stringstream ss(list);
      std::string range;
      while (std::getline(ss, range, ',')) {
        const std::size_t dash = range.find('-');
        const int lo = std::stoi(range.substr(0, dash));
        const int hi = dash == std::string::npos
                           ? lo
                           : std::stoi(range.substr(dash + 1));
        for (int c = lo; c <= hi; ++c)
          ids.push_back(c);
      }
      cpus.push_back(std::move(ids));

      std::vector<double> row;
      std::ifstream dist(base + "/distance");
      if (dist.good()) {
        // sysfs distances are ACPI SLIT values, 10 = local; normalize so
        // the diagonal is class 1.0.
        double v = 0.0;
        while (dist >> v)
          row.push_back(v / 10.0);
      }
      distance.push_back(std::move(row));
    }
    if (cpus.size() > 1) {
      Topology t;
      t.name = "host";
      const auto nodes = static_cast<unsigned>(cpus.size());
      t.classCost.assign(nodes, std::vector<double>(nodes, 1.0));
      for (unsigned a = 0; a < nodes; ++a)
        for (unsigned b = 0; b < nodes; ++b)
          t.classCost[a][b] = b < distance[a].size() && distance[a][b] > 0.0
                                  ? distance[a][b]
                                  : (a == b ? 1.0 : 2.0);
      t.cpusOfDomain = std::move(cpus);
      t.domainOfWorker = evenSplit(std::max(1u, workers), nodes);
      t.validate();
      return t;
    }
  } catch (const std::exception&) {
    // fall through to uma
  }
#endif
  return uma(workers);
}

Topology Topology::fromJson(const std::string& text) {
  JsonCursor cur(text);
  cur.expect('{', "before topology object");

  Topology t;
  t.name = "spec";
  std::vector<std::vector<double>> domains;
  std::vector<std::vector<double>> cpus;
  bool sawDomains = false, sawCost = false, sawCpus = false;

  if (!cur.consume('}')) {
    do {
      const std::string key = cur.parseString();
      cur.expect(':', "after key");
      if (key == "name") {
        t.name = cur.parseString();
      } else if (key == "domains") {
        if (sawDomains)
          fail("duplicate \"domains\" key");
        domains = cur.parseNestedArray();
        sawDomains = true;
      } else if (key == "cost") {
        if (sawCost)
          fail("duplicate \"cost\" key");
        t.classCost = cur.parseNestedArray();
        sawCost = true;
      } else if (key == "cpus") {
        if (sawCpus)
          fail("duplicate \"cpus\" key");
        cpus = cur.parseNestedArray();
        sawCpus = true;
      } else {
        fail("unknown key \"" + key + "\"");
      }
    } while (cur.consume(','));
    cur.expect('}', "after topology object");
  }
  cur.expectEnd();

  if (!sawDomains || domains.empty())
    fail("spec must list at least one domain (\"domains\")");
  if (!sawCost)
    fail("spec must carry a \"cost\" matrix");

  // "domains" partitions worker ids 0..W-1: every id exactly once.
  std::size_t workerCount = 0;
  for (const std::vector<double>& d : domains)
    workerCount += d.size();
  if (workerCount == 0)
    fail("spec names no workers");
  t.domainOfWorker.assign(workerCount, 0);
  std::vector<bool> seen(workerCount, false);
  for (std::size_t d = 0; d < domains.size(); ++d)
    for (double raw : domains[d]) {
      const int w = asIndex(raw, "worker id");
      if (static_cast<std::size_t>(w) >= workerCount)
        fail("worker id " + std::to_string(w) +
             " out of range (ids must form 0..W-1)");
      if (seen[static_cast<std::size_t>(w)])
        fail("worker id " + std::to_string(w) + " listed twice");
      seen[static_cast<std::size_t>(w)] = true;
      t.domainOfWorker[static_cast<std::size_t>(w)] =
          static_cast<unsigned>(d);
    }

  if (t.classCost.size() != domains.size())
    fail("cost matrix does not match the domain count");

  if (sawCpus) {
    if (cpus.size() != domains.size())
      fail("cpu lists must cover every domain");
    for (const std::vector<double>& row : cpus) {
      std::vector<int> ids;
      ids.reserve(row.size());
      for (double raw : row)
        ids.push_back(asIndex(raw, "cpu id"));
      t.cpusOfDomain.push_back(std::move(ids));
    }
  }

  t.validate();
  return t;
}

Topology Topology::fromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    fail("cannot read spec file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (buf.str().empty())
    fail("spec file '" + path + "' is empty");
  Topology t = fromJson(buf.str());
  if (t.name == "spec")
    t.name = path;
  return t;
}

Topology Topology::fromSpec(const std::string& spec, unsigned workers) {
  if (spec == "host")
    return detectHost(workers);
  if (std::optional<Topology> t = preset(spec, workers))
    return *t;
  return fromFile(spec);
}

std::string Topology::toString() const {
  std::ostringstream os;
  os << name << ": " << numDomains() << " domain(s), " << numWorkers()
     << " worker slot(s), classes [";
  for (std::size_t a = 0; a < classCost.size(); ++a) {
    if (a != 0)
      os << "; ";
    for (std::size_t b = 0; b < classCost[a].size(); ++b) {
      if (b != 0)
        os << ' ';
      os << classCost[a][b];
    }
  }
  os << "]";
  return os.str();
}

} // namespace pipoly::rt
