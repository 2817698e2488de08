// Algorithm 1 of the paper: belief propagation over the host <-> domain
// bipartite graph.
//
// Starting from seed hosts H (and optionally seed domains M), each iteration
// first looks for C&C-like domains among the rare domains R reachable from
// H; if none are found it labels the single rare domain with the highest
// similarity score to M, provided the score clears the threshold Ts. Newly
// labeled domains expand the compromised-host set through dom_host, which in
// turn expands R through host_rdom. The graph is thus grown incrementally —
// nodes are only added once confidence in their compromise is high — which
// is what makes the approach tractable on enterprise-scale days.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/day_graph.h"

namespace eid::core {

/// Scoring hooks for Algorithm 1. Implementations: the enterprise
/// regression-based scorer and the LANL additive scorer (scorers.h).
class DomainScorer {
 public:
  virtual ~DomainScorer() = default;

  /// Detect_C&C(dom): does the domain exhibit C&C-like behavior?
  virtual bool detect_cc(graph::DomainId domain) const = 0;

  /// C&C score that the pipeline's sweep over rare automated domains
  /// compares against Tc. A rule-based scorer's score is its verdict:
  /// 1.0 when detect_cc holds, else 0.0.
  virtual double cc_score(graph::DomainId domain) const {
    return detect_cc(domain) ? 1.0 : 0.0;
  }

  /// Compute_SimScore(dom): similarity of the domain to the labeled set.
  virtual double similarity_score(
      graph::DomainId domain, std::span<const graph::DomainId> labeled) const = 0;
};

/// Why a domain was labeled in a given iteration.
enum class LabelReason { Seed, CandC, Similarity };

const char* label_reason_name(LabelReason reason);

/// One labeling event, kept for walk-through reporting (Fig. 4).
struct BpEvent {
  std::size_t iteration = 0;
  graph::DomainId domain = 0;
  LabelReason reason = LabelReason::Similarity;
  double score = 0.0;  ///< similarity score, or beacon period for C&C labels
  std::vector<graph::HostId> new_hosts;  ///< hosts added because of this label
};

struct BpConfig {
  double sim_threshold = 0.25;     ///< Ts
  std::size_t max_iterations = 5;  ///< stop condition of Algorithm 1
  /// Algorithm 1 labels only the single best-scoring domain per iteration
  /// (incremental growth keeps confidence high). Setting this labels every
  /// domain above Ts at once — the greedy variant the ablation bench
  /// compares against.
  bool label_all_above_threshold = false;
};

struct BpResult {
  std::vector<graph::HostId> hosts;      ///< expanded compromised set H
  std::vector<graph::DomainId> domains;  ///< expanded malicious set M (with seeds)
  std::vector<graph::DomainId> new_domains;  ///< M minus the seed domains
  std::vector<BpEvent> trace;
  std::size_t iterations = 0;
  bool stopped_by_threshold = false;  ///< max score fell below Ts
};

/// Run Algorithm 1.
///
/// `rare` is the day's rare-destination set (ids in `graph`); R is always a
/// subset of it. `seed_hosts` / `seed_domains` come from SOC hints or from
/// the C&C detector (no-hint mode).
BpResult belief_propagation(const graph::DayGraph& graph,
                            const std::unordered_set<graph::DomainId>& rare,
                            std::span<const graph::HostId> seed_hosts,
                            std::span<const graph::DomainId> seed_domains,
                            const DomainScorer& scorer, const BpConfig& config);

}  // namespace eid::core
