// Day-level automation analysis: run the periodicity detector over every
// (host, domain) edge of the candidate domains and aggregate per domain.
// This feeds the AutoHosts feature, the Detect_C&C hook of Algorithm 1 and
// the LANL multi-host-synchrony C&C rule.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "graph/day_graph.h"
#include "timing/periodicity.h"

namespace eid::features {

/// One automated (host, domain) pair.
struct AutomatedPair {
  graph::HostId host = 0;
  graph::DomainId domain = 0;
  double period = 0.0;
  double divergence = 0.0;
};

/// Aggregated automation state for one domain.
struct DomainAutomation {
  std::vector<AutomatedPair> pairs;  ///< the automated edges of the domain

  bool any() const { return !pairs.empty(); }
  std::size_t host_count() const { return pairs.size(); }

  /// Period of the pair with the lowest divergence (the cleanest beacon).
  double dominant_period() const;
};

/// Automation analysis over a set of candidate domains.
class AutomationAnalysis {
 public:
  /// Scan all edges of `candidates` in `graph` with `detector`.
  /// This is the hot loop of daily analysis at enterprise volume (§II-C).
  static AutomationAnalysis analyze(const graph::DayGraph& graph,
                                    std::span<const graph::DomainId> candidates,
                                    const timing::PeriodicityDetector& detector);

  /// True when at least one host beacons to the domain.
  bool is_automated(graph::DomainId domain) const {
    return by_domain_.contains(domain);
  }

  /// Automation aggregate; nullptr when no edge of the domain is automated.
  const DomainAutomation* domain(graph::DomainId domain) const {
    auto it = by_domain_.find(domain);
    return it == by_domain_.end() ? nullptr : &it->second;
  }

  /// Total automated (host, domain) pairs (the unit Table II counts).
  std::size_t pair_count() const { return pair_count_; }

  /// Domains with at least one automated edge.
  std::vector<graph::DomainId> automated_domains() const;

 private:
  std::unordered_map<graph::DomainId, DomainAutomation> by_domain_;
  std::size_t pair_count_ = 0;
};

}  // namespace eid::features
