#pragma once

// Hardware-topology model for stage placement (the ROADMAP's
// "NUMA/distributed channel scenarios" item): workers live in *domains*
// (sockets / NUMA nodes / ring segments) and every domain pair carries a
// relative *cost class* — the per-byte price of moving channel traffic
// between them, normalized so 1.0 is a domain-local transfer. The
// channel backend's partitioner (rt/placement.hpp), the simulator's
// channel cost model and the optimizer's placement objective all consume
// the same Topology, so predicted and measured placements agree by
// construction.
//
// Three sources, in the order a deployment typically reaches for them:
//   * synthetic presets (`uma`, `2x-numa`, `ring`) — reproducible
//     topologies for CI and for the E22 placement ablation; `2x-numa` is
//     the gatekeeping shape (two domains, penalized cross-domain class),
//   * a JSON spec file (`Topology::fromFile`) — pin down a real machine's
//     shape once and replay it in tests, strict parse-and-reject on
//     malformed input (pipolyc turns the failure into an exit-2
//     diagnostic),
//   * OS detection (`Topology::detectHost`) — Linux sysfs NUMA nodes
//     (node*/cpulist + node*/distance) where available, falling back to
//     a single uma domain everywhere else.
//
// A Topology is a pure description: it never allocates threads or touches
// affinity itself. The channel engine optionally pins its workers to
// their domain's cpu list when one was detected/specified.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace pipoly::rt {

struct Topology {
  /// Diagnostic label ("uma", "2x-numa", "ring", a file name, "host").
  std::string name = "uma";

  /// Worker slot -> domain index. The partitioner places stages onto
  /// worker slots; slot w of the channel engine is pinned/charged as
  /// domain domainOfWorker[w]. Must be non-empty and name every domain
  /// in [0, numDomains()).
  std::vector<unsigned> domainOfWorker;

  /// classCost[a][b]: relative per-byte cost of an a -> b transfer.
  /// Square, symmetric in every preset (not enforced — a spec may model
  /// asymmetric links), diagonal expected to be the cheapest class.
  std::vector<std::vector<double>> classCost;

  /// Optional OS cpu ids per domain (from detection or the JSON spec),
  /// used by the channel engine for per-domain worker pinning. Empty
  /// when the topology is synthetic.
  std::vector<std::vector<int>> cpusOfDomain;

  unsigned numDomains() const {
    return static_cast<unsigned>(classCost.size());
  }
  unsigned numWorkers() const {
    return static_cast<unsigned>(domainOfWorker.size());
  }

  /// The cost class of a domain pair (1.0 on out-of-range input so a
  /// defaulted Topology behaves like uma).
  double costClass(unsigned a, unsigned b) const;

  /// True when placement cannot distinguish domains: a single domain, or
  /// every class (including the diagonal) equal — the partitioner then
  /// places by the topology-agnostic PR 8 DP alone.
  bool uniform() const;

  /// Throws std::runtime_error with a one-line diagnostic when the model
  /// is inconsistent (empty, non-square cost matrix, worker naming a
  /// missing domain, non-positive class cost).
  void validate() const;

  /// Same domains/classes re-spread over `workers` worker slots
  /// (domain-major, even split). Lets one spec serve any engine size.
  Topology resized(unsigned workers) const;

  /// Single domain, every transfer class 1.0.
  static Topology uma(unsigned workers);

  /// Two domains (sockets), workers split evenly domain-major, remote
  /// class `remoteCost`. The synthetic topology the partitioner's
  /// NUMA tests place on (`--topology=2x-numa`).
  static Topology numa2(unsigned workers, double remoteCost = 4.0);

  /// `domains` ring segments, workers split evenly; the class of a pair
  /// grows linearly with ring hop distance: 1 + hopCost * distance.
  static Topology ring(unsigned workers, unsigned domains = 4,
                       double hopCost = 1.0);

  /// Parses a preset name ("uma" | "2x-numa" | "ring") for `workers`
  /// worker slots. Empty optional on an unknown name.
  static std::optional<Topology> preset(const std::string& name,
                                        unsigned workers);

  /// Detects the host topology from Linux sysfs NUMA nodes; single-domain
  /// uma fallback when unavailable. Never throws.
  static Topology detectHost(unsigned workers);

  /// Strict JSON spec parser. Accepts exactly
  ///   {"name": str?, "domains": [[workerId...]...],
  ///    "cost": [[num...]...], "cpus": [[cpuId...]...]?}
  /// where "domains" partitions worker ids 0..W-1 and "cost" is square
  /// over the domain count. Throws std::runtime_error with a parse
  /// diagnostic on anything else (trailing garbage, unknown keys,
  /// non-positive costs, duplicate/missing workers).
  static Topology fromJson(const std::string& text);

  /// fromJson over a file's contents; throws when the file is unreadable.
  static Topology fromFile(const std::string& path);

  /// Resolves a --topology=SPEC argument: a preset name first, then a
  /// file path. Throws std::runtime_error with a diagnostic when neither.
  static Topology fromSpec(const std::string& spec, unsigned workers);

  std::string toString() const;
};

} // namespace pipoly::rt
