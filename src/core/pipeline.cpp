#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eid::core {
namespace {

/// Stage timing on the process registry, across every day any Pipeline in
/// the process analyzes — the one source stage timings are read from.
struct PipelineMetrics {
  obs::Counter& days = obs::metrics().counter("eid_pipeline_days_finished_total");
  obs::Counter& events = obs::metrics().counter("eid_pipeline_day_events_total");
  obs::Histogram& finalize = obs::metrics().histogram(
      "eid_pipeline_finalize_seconds", obs::duration_buckets());
  obs::Histogram& rare = obs::metrics().histogram("eid_pipeline_rare_seconds",
                                                  obs::duration_buckets());
  obs::Histogram& automation = obs::metrics().histogram(
      "eid_pipeline_automation_seconds", obs::duration_buckets());
  obs::Histogram& report = obs::metrics().histogram(
      "eid_pipeline_report_seconds", obs::duration_buckets());
  obs::Histogram& history = obs::metrics().histogram(
      "eid_pipeline_history_commit_seconds", obs::duration_buckets());
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

ml::Matrix to_matrix(
    const std::vector<std::array<double, features::kCcFeatureCount>>& rows) {
  ml::Matrix x(rows.size(), features::kCcFeatureCount);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < features::kCcFeatureCount; ++c) {
      x.at(r, c) = rows[r][c];
    }
  }
  return x;
}

ml::Matrix to_matrix_sim(
    const std::vector<std::array<double, features::kSimFeatureCount>>& rows) {
  ml::Matrix x(rows.size(), features::kSimFeatureCount);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < features::kSimFeatureCount; ++c) {
      x.at(r, c) = rows[r][c];
    }
  }
  return x;
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config, const features::WhoisSource& whois)
    : config_(config),
      whois_(whois),
      ua_history_(config.ua_rare_threshold) {}

void Pipeline::finish_profile(ProfileAccumulator&& accumulator) {
  const obs::TraceSpan span("profile_commit");
  domain_history_.update(
      {accumulator.domains_.begin(), accumulator.domains_.end()});
  for (const auto& [ua, hosts] : accumulator.ua_hosts_) {
    for (const auto& host : hosts) ua_history_.observe(ua, host);
  }
}

void Pipeline::update_histories(const graph::DayGraph& graph) {
  const obs::TraceSpan span("history_commit");
  const auto start = std::chrono::steady_clock::now();
  profile::update_history(domain_history_, graph);
  // for_each_edge visits in (host, domain) order. A host's (UA, host) pair
  // repeats across its edges; observing it again is a no-op, so each pair
  // is observed once, at its first edge.
  graph::HostId current = graph::kNoId;
  std::vector<graph::UaId> observed;  ///< UAs of `current` so far
  graph.for_each_edge([&](graph::HostId host, graph::DomainId,
                          const graph::EdgeData& edge) {
    if (host != current) {
      current = host;
      observed.clear();
    }
    for (const graph::UaId ua : edge.user_agents) {
      if (std::find(observed.begin(), observed.end(), ua) != observed.end()) {
        continue;
      }
      observed.push_back(ua);
      ua_history_.observe(graph.ua_name(ua), graph.host_name(host));
    }
  });
  pipeline_metrics().history.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

DayAnalysis Pipeline::finish_day(DayAccumulator&& accumulator) const {
  return finish_day_graph(accumulator.day_, std::move(accumulator.graph_),
                          accumulator.events_);
}

DayAnalysis Pipeline::finish_day_graph(util::Day day, graph::DayGraph&& graph,
                                       std::size_t events) const {
  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point start) {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  PipelineMetrics& metrics = pipeline_metrics();
  const obs::TraceSpan day_span("finish_day");

  DayAnalysis analysis;
  analysis.day = day;
  analysis.event_count = events;
  analysis.graph = std::move(graph);
  auto stage_start = clock::now();
  {
    const obs::TraceSpan span("csr_finalize");
    analysis.graph.finalize();
  }
  metrics.finalize.observe(seconds_since(stage_start));

  stage_start = clock::now();
  profile::RareExtraction rare;
  {
    const obs::TraceSpan span("rare_extraction");
    rare = profile::extract_rare_destinations(
        analysis.graph, domain_history_, config_.popularity_threshold);
    if (top_sites_ != nullptr) {
      rare.rare_domains = profile::filter_top_sites(analysis.graph,
                                                    rare.rare_domains,
                                                    *top_sites_);
    }
  }
  analysis.rare.insert(rare.rare_domains.begin(), rare.rare_domains.end());
  analysis.new_domains = rare.new_domains;
  analysis.total_domains = rare.total_domains;
  metrics.rare.observe(seconds_since(stage_start));

  stage_start = clock::now();
  const timing::PeriodicityDetector detector(config_.periodicity);
  {
    const obs::TraceSpan span("automation_scan");
    analysis.automation = features::AutomationAnalysis::analyze(
        analysis.graph, rare.rare_domains, detector);
  }
  metrics.automation.observe(seconds_since(stage_start));
  metrics.days.add(1);
  metrics.events.add(analysis.event_count);
  if (whois_samples_ > 0) {
    analysis.whois_defaults.age_days =
        whois_age_sum_ / static_cast<double>(whois_samples_);
    analysis.whois_defaults.validity_days =
        whois_validity_sum_ / static_cast<double>(whois_samples_);
  }
  return analysis;
}

void Pipeline::train_from_analysis(const DayAnalysis& analysis,
                                   const LabelFn& intel) {
  const util::Day day = analysis.day;

  // C&C rows: every rare automated domain, labeled by the intel feed.
  std::vector<graph::DomainId> reported_automated;
  for (const graph::DomainId domain : analysis.automation.automated_domains()) {
    if (!analysis.rare.contains(domain)) continue;
    const features::CcFeatureRow row = features::extract_cc_features(
        analysis.graph, domain, analysis.automation, ua_history_, whois_, day,
        analysis.whois_defaults);
    if (row.whois_resolved) {
      whois_age_sum_ += row.dom_age;
      whois_validity_sum_ += row.dom_validity;
      ++whois_samples_;
    }
    const bool reported = intel(analysis.graph.domain_name(domain));
    cc_rows_.push_back(row.as_array());
    cc_labels_.push_back(reported ? 1.0 : 0.0);
    if (reported) reported_automated.push_back(domain);
  }

  // Similarity rows: rare non-automated domains contacted by hosts of the
  // confirmed (reported) C&C domains, with features relative to that set.
  if (!reported_automated.empty()) {
    std::unordered_set<graph::HostId> compromised;
    for (const graph::DomainId domain : reported_automated) {
      for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
        compromised.insert(host);
      }
    }
    std::unordered_set<graph::DomainId> candidates;
    for (const graph::HostId host : compromised) {
      for (const graph::DomainId domain : analysis.graph.host_domains(host)) {
        if (!analysis.rare.contains(domain)) continue;
        if (analysis.automation.is_automated(domain)) continue;
        candidates.insert(domain);
      }
    }
    std::vector<graph::DomainId> ordered(candidates.begin(), candidates.end());
    std::sort(ordered.begin(), ordered.end());
    for (const graph::DomainId domain : ordered) {
      const features::SimilarityFeatureRow row =
          features::extract_similarity_features(analysis.graph, domain,
                                                reported_automated, ua_history_,
                                                whois_, day,
                                                analysis.whois_defaults);
      sim_rows_.push_back(row.as_array());
      sim_labels_.push_back(intel(analysis.graph.domain_name(domain)) ? 1.0 : 0.0);
    }
  }
}

TrainingReport Pipeline::finalize_training() {
  TrainingReport report;
  report.cc_rows = cc_rows_.size();
  report.sim_rows = sim_rows_.size();
  for (const double l : cc_labels_) report.cc_positive += l > 0.5 ? 1 : 0;
  for (const double l : sim_labels_) report.sim_positive += l > 0.5 ? 1 : 0;

  if (cc_rows_.size() > features::kCcFeatureCount + 1) {
    const ml::Matrix raw = to_matrix(cc_rows_);
    cc_model_.scaler.fit(raw);
    const ml::Matrix scaled = cc_model_.scaler.transform(raw);
    cc_model_.model = ml::fit_linear_regression(scaled, cc_labels_);
    report.cc_model = cc_model_.model;
    // Normalize so training scores span [0, 1] (see ScoredModel).
    std::vector<double> raw_scores(cc_rows_.size());
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t r = 0; r < cc_rows_.size(); ++r) {
      std::array<double, features::kCcFeatureCount> row;
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = scaled.at(r, c);
      raw_scores[r] = cc_model_.model.predict(row);
      if (r == 0 || raw_scores[r] < lo) lo = raw_scores[r];
      if (r == 0 || raw_scores[r] > hi) hi = raw_scores[r];
    }
    cc_model_.score_offset = lo;
    cc_model_.score_scale = hi - lo > 1e-12 ? hi - lo : 1.0;
    for (std::size_t r = 0; r < cc_rows_.size(); ++r) {
      report.cc_training_scores.emplace_back(
          (raw_scores[r] - cc_model_.score_offset) / cc_model_.score_scale,
          cc_labels_[r] > 0.5);
    }
  }
  if (sim_rows_.size() > features::kSimFeatureCount + 1) {
    const ml::Matrix raw = to_matrix_sim(sim_rows_);
    sim_model_.scaler.fit(raw);
    const ml::Matrix scaled = sim_model_.scaler.transform(raw);
    sim_model_.model = ml::fit_linear_regression(scaled, sim_labels_);
    report.sim_model = sim_model_.model;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t r = 0; r < sim_rows_.size(); ++r) {
      std::array<double, features::kSimFeatureCount> row;
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = scaled.at(r, c);
      const double s = sim_model_.model.predict(row);
      if (r == 0 || s < lo) lo = s;
      if (r == 0 || s > hi) hi = s;
    }
    sim_model_.score_offset = lo;
    sim_model_.score_scale = hi - lo > 1e-12 ? hi - lo : 1.0;
  }
  models_ready_ = true;
  return report;
}

void Pipeline::set_models(ScoredModel cc, ScoredModel sim) {
  cc_model_ = std::move(cc);
  sim_model_ = std::move(sim);
  models_ready_ = true;
}

std::unique_ptr<DomainScorer> Pipeline::make_scorer(
    const DayAnalysis& analysis) const {
  const DayState state{analysis.graph, analysis.rare,     analysis.automation,
                       ua_history_,    whois_,            analysis.day,
                       analysis.whois_defaults};
  if (models_ready_) {
    return std::make_unique<EnterpriseScorer>(state, cc_model_, sim_model_,
                                              config_.cc_threshold);
  }
  return std::make_unique<LanlScorer>(state);
}

std::vector<ScoredDomain> Pipeline::sweep_cc(const DayAnalysis& analysis,
                                             double tc) const {
  const std::unique_ptr<DomainScorer> scorer = make_scorer(analysis);
  std::vector<ScoredDomain> out;
  for (const graph::DomainId domain : analysis.automation.automated_domains()) {
    if (!analysis.rare.contains(domain)) continue;
    const double score = scorer->cc_score(domain);
    if (score < tc) continue;
    const features::DomainAutomation* agg = analysis.automation.domain(domain);
    out.push_back(ScoredDomain{analysis.graph.domain_name(domain), score,
                               agg != nullptr ? agg->dominant_period() : 0.0,
                               agg != nullptr ? agg->host_count() : 0});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ScoredDomain& a, const ScoredDomain& b) {
                     return a.score > b.score;
                   });
  return out;
}

std::vector<ScoredDomain> Pipeline::score_automated(
    const DayAnalysis& analysis) const {
  return sweep_cc(analysis, -std::numeric_limits<double>::infinity());
}

std::vector<ScoredDomain> Pipeline::detect_cc(const DayAnalysis& analysis,
                                              std::optional<double> tc) const {
  return sweep_cc(analysis, tc.value_or(config_.cc_threshold));
}

BpRunReport Pipeline::run_bp(const DayAnalysis& analysis,
                             std::span<const graph::HostId> seed_hosts,
                             std::span<const graph::DomainId> seed_domains,
                             std::optional<double> ts) const {
  BpConfig bp;
  bp.sim_threshold = ts.value_or(config_.sim_threshold);
  bp.max_iterations = config_.bp_max_iterations;
  const graph::DayGraph& graph = analysis.graph;
  const BpResult result =
      belief_propagation(graph, analysis.rare, seed_hosts, seed_domains,
                         *make_scorer(analysis), bp);

  BpRunReport report;
  report.iterations = result.iterations;
  for (const BpEvent& event : result.trace) {
    if (event.reason == LabelReason::Seed) continue;
    DetectedDomain det;
    det.name = graph.domain_name(event.domain);
    det.score = event.score;
    det.reason = event.reason;
    det.iteration = event.iteration;
    for (const graph::HostId host : event.new_hosts) {
      det.new_hosts.push_back(graph.host_name(host));
    }
    report.domains.push_back(std::move(det));
  }
  for (const graph::HostId host : result.hosts) {
    report.hosts.push_back(graph.host_name(host));
  }
  return report;
}

BpRunReport Pipeline::run_bp_nohint(const DayAnalysis& analysis,
                                    const std::vector<ScoredDomain>& cc_domains,
                                    std::optional<double> ts) const {
  std::vector<graph::DomainId> seeds;
  for (const ScoredDomain& det : cc_domains) {
    const graph::DomainId id = analysis.graph.find_domain(det.name);
    if (id != graph::kNoId) seeds.push_back(id);
  }
  return run_bp(analysis, {}, seeds, ts);
}

BpRunReport Pipeline::run_bp_sochints(const DayAnalysis& analysis,
                                      const SocSeeds& seeds,
                                      std::optional<double> ts) const {
  std::vector<graph::HostId> seed_hosts;
  for (const std::string& host : seeds.hosts) {
    const graph::HostId id = analysis.graph.find_host(host);
    if (id != graph::kNoId) seed_hosts.push_back(id);
  }
  std::vector<graph::DomainId> seed_domains;
  for (const std::string& domain : seeds.domains) {
    const graph::DomainId id = analysis.graph.find_domain(domain);
    if (id != graph::kNoId) seed_domains.push_back(id);
  }
  return run_bp(analysis, seed_hosts, seed_domains, ts);
}

DayReport Pipeline::report_day(const DayAnalysis& analysis,
                               const SocSeeds& seeds) const {
  const obs::TraceSpan day_span("report_day");
  const auto report_start = std::chrono::steady_clock::now();
  DayReport report;
  report.day = analysis.day;
  report.events = analysis.event_count;
  report.hosts = analysis.graph.host_count();
  report.domains = analysis.graph.domain_count();
  report.rare_domains = analysis.rare.size();
  report.automated_pairs = analysis.automation.pair_count();

  {
    const obs::TraceSpan span("score_automated");
    report.automated_scores = score_automated(analysis);
    for (const ScoredDomain& scored : report.automated_scores) {
      if (scored.score < config_.cc_threshold) continue;
      report.cc_domains.push_back(scored);
    }
  }
  {
    const obs::TraceSpan span("bp_nohint");
    report.nohint = run_bp_nohint(analysis, report.cc_domains);
  }
  if (!seeds.hosts.empty() || !seeds.domains.empty()) {
    const obs::TraceSpan span("bp_sochints");
    report.sochints = run_bp_sochints(analysis, seeds);
  }
  pipeline_metrics().report.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    report_start)
          .count());
  return report;
}

void Pipeline::export_training_rows(std::size_t cc_first, std::size_t sim_first,
                                    std::vector<double>& cc,
                                    std::vector<double>& cc_labels,
                                    std::vector<double>& sim,
                                    std::vector<double>& sim_labels) const {
  cc.clear();
  cc_labels.clear();
  sim.clear();
  sim_labels.clear();
  cc_first = std::min(cc_first, cc_rows_.size());
  sim_first = std::min(sim_first, sim_rows_.size());
  cc.reserve((cc_rows_.size() - cc_first) * features::kCcFeatureCount);
  for (std::size_t i = cc_first; i < cc_rows_.size(); ++i) {
    cc.insert(cc.end(), cc_rows_[i].begin(), cc_rows_[i].end());
  }
  cc_labels.assign(cc_labels_.begin() + static_cast<std::ptrdiff_t>(cc_first),
                   cc_labels_.end());
  sim.reserve((sim_rows_.size() - sim_first) * features::kSimFeatureCount);
  for (std::size_t i = sim_first; i < sim_rows_.size(); ++i) {
    sim.insert(sim.end(), sim_rows_[i].begin(), sim_rows_[i].end());
  }
  sim_labels.assign(sim_labels_.begin() + static_cast<std::ptrdiff_t>(sim_first),
                    sim_labels_.end());
}

bool Pipeline::import_training_rows(std::span<const double> cc,
                                    std::span<const double> cc_labels,
                                    std::span<const double> sim,
                                    std::span<const double> sim_labels) {
  if (cc.size() != cc_labels.size() * features::kCcFeatureCount ||
      sim.size() != sim_labels.size() * features::kSimFeatureCount) {
    return false;
  }
  cc_rows_.reserve(cc_rows_.size() + cc_labels.size());
  for (std::size_t i = 0; i < cc_labels.size(); ++i) {
    std::array<double, features::kCcFeatureCount> row;
    std::copy_n(cc.begin() +
                    static_cast<std::ptrdiff_t>(i * features::kCcFeatureCount),
                features::kCcFeatureCount, row.begin());
    cc_rows_.push_back(row);
  }
  cc_labels_.insert(cc_labels_.end(), cc_labels.begin(), cc_labels.end());
  sim_rows_.reserve(sim_rows_.size() + sim_labels.size());
  for (std::size_t i = 0; i < sim_labels.size(); ++i) {
    std::array<double, features::kSimFeatureCount> row;
    std::copy_n(sim.begin() +
                    static_cast<std::ptrdiff_t>(i * features::kSimFeatureCount),
                features::kSimFeatureCount, row.begin());
    sim_rows_.push_back(row);
  }
  sim_labels_.insert(sim_labels_.end(), sim_labels.begin(), sim_labels.end());
  return true;
}

}  // namespace eid::core
