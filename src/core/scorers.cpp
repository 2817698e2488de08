#include "core/scorers.h"

#include <algorithm>
#include <cmath>

namespace eid::core {
namespace {

// LanlScorer constants (§V-B).
/// Two hosts beacon "at similar time periods" when their detected periods
/// differ by at most this many seconds.
constexpr double kPeriodMatchSeconds = 10.0;
/// The timing-correlation component fires when the min first-visit gap to
/// a labeled domain is at most this many seconds (Fig. 3 regime).
constexpr double kTimingCloseSeconds = 160.0;
/// The connectivity component saturates at this many hosts.
constexpr double kConnectivityCap = 10.0;

}  // namespace

double EnterpriseScorer::cc_score(graph::DomainId domain) const {
  const features::CcFeatureRow row = features::extract_cc_features(
      state_.graph, domain, state_.automation, state_.ua_history, state_.whois,
      state_.today, state_.whois_defaults);
  auto values = row.as_array();
  return cc_.score(values);
}

double EnterpriseScorer::sim_score(graph::DomainId domain,
                                   std::span<const graph::DomainId> labeled) const {
  const features::SimilarityFeatureRow row = features::extract_similarity_features(
      state_.graph, domain, labeled, state_.ua_history, state_.whois, state_.today,
      state_.whois_defaults);
  auto values = row.as_array();
  return sim_.score(values);
}

bool EnterpriseScorer::detect_cc(graph::DomainId domain) const {
  if (!state_.rare.contains(domain)) return false;
  if (!state_.automation.is_automated(domain)) return false;
  return cc_score(domain) >= cc_threshold_;
}

double EnterpriseScorer::similarity_score(
    graph::DomainId domain, std::span<const graph::DomainId> labeled) const {
  return sim_score(domain, labeled);
}

bool LanlScorer::detect_cc(graph::DomainId domain) const {
  const features::DomainAutomation* agg = state_.automation.domain(domain);
  if (agg == nullptr || agg->pairs.size() < 2) return false;
  // At least two distinct hosts beaconing with similar periods.
  for (std::size_t i = 0; i < agg->pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < agg->pairs.size(); ++j) {
      if (agg->pairs[i].host == agg->pairs[j].host) continue;
      if (std::abs(agg->pairs[i].period - agg->pairs[j].period) <=
          kPeriodMatchSeconds) {
        return true;
      }
    }
  }
  return false;
}

LanlScorer::Components LanlScorer::components(
    graph::DomainId domain, std::span<const graph::DomainId> labeled) const {
  Components c;
  const double hosts =
      static_cast<double>(state_.graph.domain_hosts(domain).size());
  c.connectivity = std::min(hosts, kConnectivityCap) / kConnectivityCap;
  const double gap = features::min_visit_gap(state_.graph, domain, labeled);
  c.timing = gap <= kTimingCloseSeconds ? 1.0 : 0.0;
  const features::IpProximity prox =
      features::ip_proximity(state_.graph, domain, labeled);
  if (prox.share24) {
    c.ip = 2.0;
  } else if (prox.share16) {
    c.ip = 1.0;
  }
  return c;
}

double LanlScorer::similarity_score(graph::DomainId domain,
                                    std::span<const graph::DomainId> labeled) const {
  const Components c = components(domain, labeled);
  // Sum of the three components, normalized by the maximum attainable value
  // (1 + 1 + 2), so scores live in [0, 1].
  return (c.connectivity + c.timing + c.ip) / 4.0;
}

}  // namespace eid::core
