#include "features/automation.h"

#include <algorithm>

namespace eid::features {

double DomainAutomation::dominant_period() const {
  if (pairs.empty()) return 0.0;
  const auto best = std::min_element(
      pairs.begin(), pairs.end(), [](const AutomatedPair& a, const AutomatedPair& b) {
        return a.divergence < b.divergence;
      });
  return best->period;
}

namespace {

// Automated pairs of one candidate domain, in deterministic (host) order.
std::vector<AutomatedPair> analyze_domain(
    const graph::DayGraph& graph, graph::DomainId domain,
    const timing::PeriodicityDetector& detector) {
  std::vector<AutomatedPair> out;
  for (const graph::HostId host : graph.domain_hosts(domain)) {
    const graph::EdgeData* edge = graph.edge(host, domain);
    if (edge == nullptr) continue;
    const timing::AutomationResult result = detector.test(edge->times);
    if (!result.automated) continue;
    AutomatedPair pair;
    pair.host = host;
    pair.domain = domain;
    pair.period = result.period;
    pair.divergence = result.divergence;
    out.push_back(pair);
  }
  return out;
}

}  // namespace

AutomationAnalysis AutomationAnalysis::analyze(
    const graph::DayGraph& graph, std::span<const graph::DomainId> candidates,
    const timing::PeriodicityDetector& detector) {
  AutomationAnalysis out;
  for (const graph::DomainId domain : candidates) {
    std::vector<AutomatedPair> pairs = analyze_domain(graph, domain, detector);
    if (pairs.empty()) continue;
    out.pair_count_ += pairs.size();
    DomainAutomation& agg = out.by_domain_[domain];
    agg.pairs.insert(agg.pairs.end(), pairs.begin(), pairs.end());
  }
  return out;
}

std::vector<graph::DomainId> AutomationAnalysis::automated_domains() const {
  std::vector<graph::DomainId> out;
  out.reserve(by_domain_.size());
  for (const auto& [domain, agg] : by_domain_) out.push_back(domain);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace eid::features
