// End-to-end system of Fig. 1 for the enterprise (web proxy) deployment.
//
// Training (one month):
//   (1) normalization/reduction happens upstream (logs::reduce_*);
//   (2) profiling: domain + UA histories;
//   (3) C&C detector customization: regression over labeled automated rare
//       domains (labels from an intelligence feed such as VirusTotal);
//   (4) domain-similarity customization: regression over rare non-automated
//       domains contacted by hosts of confirmed C&C domains.
//
// Operation (daily):
//   (1) reduction; (2) profile comparison/update (rare destinations, rare
//   UAs); (3) C&C detector; (4) belief propagation in both modes.
//
// Ingestion is incremental: a day is built chunk-by-chunk through
// DayAccumulator (begin_day / add_chunk / finish_day), so callers never
// need a fully materialized per-day event vector, and results are
// bit-identical for any chunking of the same event sequence. finish_day()
// is separated from report_day() and update_histories() so benchmarks can
// sweep thresholds over one day's analysis without recomputing it, and so
// history updates stay explicit. api::Detector is the public surface: it
// drives these stages from a streaming EventSource.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/scorers.h"
#include "profile/domain_history.h"
#include "profile/top_sites.h"
#include "profile/ua_history.h"

namespace eid::core {

struct PipelineConfig {
  std::size_t popularity_threshold = 10;  ///< rare-destination host cap
  std::size_t ua_rare_threshold = 10;     ///< rare-UA host cap
  timing::PeriodicityDetector::Params periodicity{};  ///< W = 10 s, JT = 0.06
  double cc_threshold = 0.4;   ///< Tc (Fig. 6a sweeps 0.40..0.48)
  double sim_threshold = 0.33; ///< Ts (Fig. 6b sweeps 0.33..0.85)
  std::size_t bp_max_iterations = 10;
};

/// Everything computed about one day before any thresholding.
struct DayAnalysis {
  util::Day day = 0;
  graph::DayGraph graph;
  std::unordered_set<graph::DomainId> rare;
  features::AutomationAnalysis automation;
  features::WhoisDefaults whois_defaults;
  std::size_t event_count = 0;
  std::size_t new_domains = 0;    ///< new regardless of popularity
  std::size_t total_domains = 0;
};

/// A detected domain with its provenance, reported by name so results
/// survive the per-day interning.
struct DetectedDomain {
  std::string name;
  double score = 0.0;
  LabelReason reason = LabelReason::Similarity;
  std::size_t iteration = 0;
  std::vector<std::string> new_hosts;  ///< hosts this label added to H
};

struct BpRunReport {
  std::vector<DetectedDomain> domains;  ///< newly labeled (seeds excluded)
  /// Expanded compromised set: the seed hosts, then each label's
  /// new_hosts in label order.
  std::vector<std::string> hosts;
  std::size_t iterations = 0;
};

/// Score assigned to one automated rare domain (Fig. 5 / Fig. 6a series).
struct ScoredDomain {
  std::string name;
  double score = 0.0;
  double period = 0.0;
  std::size_t auto_hosts = 0;
};

struct DayReport {
  util::Day day = 0;
  std::size_t events = 0;
  std::size_t hosts = 0;
  std::size_t domains = 0;
  std::size_t rare_domains = 0;
  std::size_t automated_pairs = 0;
  std::vector<ScoredDomain> automated_scores;  ///< all rare automated domains
  std::vector<ScoredDomain> cc_domains;        ///< score >= Tc
  BpRunReport nohint;
  BpRunReport sochints;
};

/// SOC-provided seeds for the hints mode.
struct SocSeeds {
  std::vector<std::string> hosts;
  std::vector<std::string> domains;
};

/// Intelligence label callback: true when the feed (VirusTotal in the
/// paper) reports the domain malicious.
using LabelFn = std::function<bool(const std::string& domain)>;

/// Incremental builder for one day's analysis. Obtain from
/// Pipeline::begin_day(), feed events in any number of chunks, then hand
/// back to Pipeline::finish_day(). Only the day graph grows while chunks
/// arrive, so the result is identical for any chunking of the same event
/// sequence: finalize, rare extraction and automation all run in
/// finish_day().
class DayAccumulator {
 public:
  /// Ingest one chunk (see DayGraph::add_events); the span only needs to
  /// outlive this call.
  void add_chunk(std::span<const logs::ConnEvent> events) {
    graph_.add_events(events);
    events_ += events.size();
  }

  util::Day day() const { return day_; }
  std::size_t event_count() const { return events_; }

 private:
  friend class Pipeline;
  explicit DayAccumulator(util::Day day) : day_(day) {}

  util::Day day_;
  graph::DayGraph graph_;
  std::size_t events_ = 0;
};

/// Incremental collector for the profiling stage (bootstrap month): only
/// the day's distinct domains and distinct (UA, host) pairs are retained,
/// so memory stays O(distinct) for arbitrarily large days. Histories are
/// committed at end-of-day by Pipeline::finish_profile(), preserving the
/// "today's traffic does not mask today's new destinations" contract.
class ProfileAccumulator {
 public:
  void add(const logs::ConnEvent& event) {
    ++events_;
    domains_.insert(event.domain);
    if (!event.has_http_context || event.user_agent.empty()) return;
    auto& hosts = ua_hosts_[event.user_agent];
    // A UA with `ua_cap_` distinct hosts in one day is popular regardless
    // of prior history, so further hosts add no information.
    if (ua_cap_ == 0 || hosts.size() < ua_cap_) hosts.insert(event.host);
  }

  void add_chunk(std::span<const logs::ConnEvent> events) {
    for (const auto& event : events) add(event);
  }

  std::size_t event_count() const { return events_; }

 private:
  friend class Pipeline;
  explicit ProfileAccumulator(std::size_t ua_cap) : ua_cap_(ua_cap) {}

  std::size_t ua_cap_;
  std::size_t events_ = 0;
  std::unordered_set<std::string> domains_;
  std::unordered_map<std::string, std::unordered_set<std::string>> ua_hosts_;
};

/// Outcome of finalize_training(), for reporting regression diagnostics
/// (§VI-A: coefficient signs and significance).
struct TrainingReport {
  ml::LinearModel cc_model;
  ml::LinearModel sim_model;
  std::size_t cc_rows = 0;
  std::size_t cc_positive = 0;
  std::size_t sim_rows = 0;
  std::size_t sim_positive = 0;
  /// (score, reported?) pairs over the C&C training rows — the Fig. 5 CDFs.
  std::vector<std::pair<double, bool>> cc_training_scores;
};

class Pipeline {
 public:
  Pipeline(PipelineConfig config, const features::WhoisSource& whois);

  // ---- Training ----

  /// Stage 2 (bootstrap month), streaming profiling: begin a day, feed
  /// chunks, commit the histories at day end.
  ProfileAccumulator begin_profile() const {
    return ProfileAccumulator(config_.ua_rare_threshold);
  }
  void finish_profile(ProfileAccumulator&& accumulator);

  /// Stages 3-4 for an already-computed analysis: accumulate labeled
  /// regression rows only. The caller owns the end-of-day history update
  /// (update_histories() with the day's graph).
  void train_from_analysis(const DayAnalysis& analysis, const LabelFn& intel);

  /// Fit the C&C and similarity regressions from the accumulated rows.
  TrainingReport finalize_training();

  /// Install externally-fit models (tests, ablations). Tc and Ts stay
  /// config().cc_threshold / sim_threshold.
  void set_models(ScoredModel cc, ScoredModel sim);

  /// Install a global-popularity whitelist (§II-A): rare destinations on
  /// the list are excluded from analysis. Pass nullptr to clear. The list
  /// must outlive the pipeline.
  void set_top_sites(const profile::TopSitesList* top_sites) {
    top_sites_ = top_sites;
  }

  const profile::TopSitesList* top_sites() const { return top_sites_; }

  // ---- Checkpoint/restore hooks (storage/state.h) ----

  /// WHOIS aggregates accumulated while training. They seed the per-day
  /// WhoisDefaults of every later analysis, so checkpoints must carry them
  /// for restored runs to be bit-identical.
  struct WhoisTrainingStats {
    double age_sum = 0.0;
    double validity_sum = 0.0;
    std::size_t samples = 0;
  };

  WhoisTrainingStats whois_training_stats() const {
    return {whois_age_sum_, whois_validity_sum_, whois_samples_};
  }

  void restore_whois_training_stats(const WhoisTrainingStats& stats) {
    whois_age_sum_ = stats.age_sum;
    whois_validity_sum_ = stats.validity_sum;
    whois_samples_ = stats.samples;
  }

  /// Replace the configuration wholesale (checkpoint restore). The WHOIS
  /// source reference and accumulated histories are unchanged.
  void set_config(const PipelineConfig& config) { config_ = config; }

  /// Replace both histories with restored state.
  void restore_histories(profile::DomainHistory domains, profile::UaHistory uas) {
    domain_history_ = std::move(domains);
    ua_history_ = std::move(uas);
  }

  /// Like set_models(), but also restores whether training had been
  /// finalized when the state was saved.
  void restore_models(ScoredModel cc, ScoredModel sim, bool ready) {
    cc_model_ = std::move(cc);
    sim_model_ = std::move(sim);
    models_ready_ = ready;
  }

  bool models_ready() const { return models_ready_; }

  // ---- Delta-checkpoint hooks (storage/delta.h) ----

  /// Start (or stop) journaling history mutations for delta saves.
  void set_history_journaling(bool on) {
    domain_history_.set_journaling(on);
    ua_history_.set_journaling(on);
  }

  /// History changes since the last drain (or since journaling started).
  struct HistoryDelta {
    std::vector<std::string> new_domains;  ///< first-seen, in arrival order
    std::vector<std::string> touched_uas;  ///< mutated entries, first-touch
  };

  HistoryDelta drain_history_journal() {
    return {domain_history_.drain_journal(), ua_history_.drain_journal()};
  }

  /// Accumulated training-row counts, for delta saves that only ship the
  /// rows appended since the previous frame.
  std::size_t cc_training_rows() const { return cc_labels_.size(); }
  std::size_t sim_training_rows() const { return sim_labels_.size(); }

  /// Flatten accumulated training rows starting at the given row indices
  /// (row-major, features::kCcFeatureCount / kSimFeatureCount columns).
  /// The storage layer cannot see the fixed-width arrays, so flat double
  /// vectors are the interchange format.
  void export_training_rows(std::size_t cc_first, std::size_t sim_first,
                            std::vector<double>& cc,
                            std::vector<double>& cc_labels,
                            std::vector<double>& sim,
                            std::vector<double>& sim_labels) const;

  /// Append restored training rows (mid-training crash resume). False when
  /// the flat data is not a whole number of rows of the expected width.
  bool import_training_rows(std::span<const double> cc,
                            std::span<const double> cc_labels,
                            std::span<const double> sim,
                            std::span<const double> sim_labels);

  /// Drop accumulated training rows (checkpoint restore replaces them).
  void clear_training_rows() {
    cc_rows_.clear();
    cc_labels_.clear();
    sim_rows_.clear();
    sim_labels_.clear();
  }

  // ---- Operation ----
  //
  // Every scoring verb below scores with one scorer, chosen by
  // models_ready(): the trained regressions (EnterpriseScorer) once
  // finalize_training, set_models or a restore has installed models, the
  // training-free DNS-log rules of §V-B (LanlScorer) before that.

  /// Start incremental analysis of one day (streaming ingestion).
  DayAccumulator begin_day(util::Day day) const { return DayAccumulator(day); }

  /// Finalize an incremental day (steps 1-2 + feature analysis, no
  /// thresholding, no history update): graph views, rare extraction,
  /// automation analysis, WHOIS defaults. Identical for any chunking of the
  /// events fed to the accumulator.
  DayAnalysis finish_day(DayAccumulator&& accumulator) const;

  /// finish_day for callers that assembled the day graph themselves — the
  /// rt engine hands graphs assembled, already finalized, from its sealed
  /// window segments (finalize here is idempotent). `events` is the
  /// ingested event count the graph represents. Identical to finish_day on
  /// an accumulator fed the same event sequence.
  DayAnalysis finish_day_graph(util::Day day, graph::DayGraph&& graph,
                               std::size_t events) const;

  /// All automated rare domains of the day with their C&C scores,
  /// unthresholded, by decreasing score (the Fig. 5 / Fig. 6a series).
  std::vector<ScoredDomain> score_automated(const DayAnalysis& analysis) const;

  /// Step 3: C&C sweep at threshold Tc (config default when unset) —
  /// score_automated() without the domains scoring below Tc.
  std::vector<ScoredDomain> detect_cc(
      const DayAnalysis& analysis,
      std::optional<double> tc = std::nullopt) const;

  /// Step 4, no-hint mode: seed BP with the C&C detections.
  BpRunReport run_bp_nohint(const DayAnalysis& analysis,
                            const std::vector<ScoredDomain>& cc_domains,
                            std::optional<double> ts = std::nullopt) const;

  /// Step 4, SOC-hints mode.
  BpRunReport run_bp_sochints(const DayAnalysis& analysis, const SocSeeds& seeds,
                              std::optional<double> ts = std::nullopt) const;

  /// End-of-day profile update (operation step 2, "histories are updated")
  /// from a finalized day graph: the raw events are gone, but the graph
  /// holds the day's distinct domains and (host, UA) pairs.
  void update_histories(const graph::DayGraph& graph);

  /// Thresholding + both BP modes over an already-computed analysis, no
  /// history update. Each automated rare domain is scored once:
  /// cc_domains is automated_scores above Tc.
  DayReport report_day(const DayAnalysis& analysis, const SocSeeds& seeds) const;

  const PipelineConfig& config() const { return config_; }
  const profile::DomainHistory& domain_history() const { return domain_history_; }
  const profile::UaHistory& ua_history() const { return ua_history_; }
  const ScoredModel& cc_model() const { return cc_model_; }
  const ScoredModel& sim_model() const { return sim_model_; }

 private:
  /// The one place a scorer is built (see "Operation" above).
  std::unique_ptr<DomainScorer> make_scorer(const DayAnalysis& analysis) const;
  /// Rare automated domains scoring at least `tc`, by decreasing score.
  std::vector<ScoredDomain> sweep_cc(const DayAnalysis& analysis,
                                     double tc) const;
  /// Algorithm 1 from seeds already resolved to today's ids.
  BpRunReport run_bp(const DayAnalysis& analysis,
                     std::span<const graph::HostId> seed_hosts,
                     std::span<const graph::DomainId> seed_domains,
                     std::optional<double> ts) const;

  PipelineConfig config_;
  const features::WhoisSource& whois_;
  const profile::TopSitesList* top_sites_ = nullptr;
  profile::DomainHistory domain_history_;
  profile::UaHistory ua_history_;

  // Accumulated training rows.
  std::vector<std::array<double, features::kCcFeatureCount>> cc_rows_;
  std::vector<double> cc_labels_;
  std::vector<std::array<double, features::kSimFeatureCount>> sim_rows_;
  std::vector<double> sim_labels_;
  double whois_age_sum_ = 0.0;
  double whois_validity_sum_ = 0.0;
  std::size_t whois_samples_ = 0;

  ScoredModel cc_model_;
  ScoredModel sim_model_;
  bool models_ready_ = false;
};

}  // namespace eid::core
