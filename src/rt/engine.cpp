#include "rt/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <string_view>
#include <utility>

#include "graph/day_graph.h"
#include "graph/window_dictionary.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "profile/domain_history.h"

namespace eid::rt {

namespace {

/// Real-time loop health on the process registry: how long a tick's
/// re-score takes (wall), how far behind detection runs in sim time
/// (event -> emission), and how much the sliding window is holding.
struct RtMetrics {
  obs::Counter& ticks = obs::metrics().counter("eid_rt_ticks_closed_total");
  obs::Counter& evaluations = obs::metrics().counter("eid_rt_evaluations_total");
  obs::Counter& days_closed = obs::metrics().counter("eid_rt_days_closed_total");
  obs::Counter& provisional =
      obs::metrics().counter("eid_rt_provisional_emissions_total");
  obs::Counter& finalized =
      obs::metrics().counter("eid_rt_finalized_emissions_total");
  obs::Gauge& backlog = obs::metrics().gauge("eid_rt_poll_backlog_events");
  obs::Gauge& window_buckets = obs::metrics().gauge("eid_rt_window_buckets");
  obs::Gauge& last_tick = obs::metrics().gauge("eid_rt_last_tick_seconds");
  // Window assembly health (rt/window.h WindowAccumulator::Stats).
  obs::Counter& buckets_sealed =
      obs::metrics().counter("eid_rt_buckets_sealed_total");
  obs::Counter& partial_absorbs =
      obs::metrics().counter("eid_rt_partial_absorbs_total");
  obs::Counter& merge_extends =
      obs::metrics().counter("eid_rt_window_merge_extends_total");
  obs::Counter& merge_rebuilds =
      obs::metrics().counter("eid_rt_window_merge_rebuilds_total");
  obs::Gauge& cached_events =
      obs::metrics().gauge("eid_rt_cached_partial_events");
  obs::Histogram& tick_seconds = obs::metrics().histogram(
      "eid_rt_tick_seconds", obs::duration_buckets());
  obs::Histogram& emission_latency = obs::metrics().histogram(
      "eid_rt_emission_latency_seconds", obs::latency_buckets());
};

RtMetrics& rt_metrics() {
  static RtMetrics metrics;
  return metrics;
}

// Earliest first-contact timestamp of the named domains in the analyzed
// graph — the event time of the evidence behind an emission. 0 when none
// of the names appear (empty evidence).
util::TimePoint earliest_contact(const core::DayAnalysis& analysis,
                                 std::span<const std::string> names) {
  util::TimePoint earliest = 0;
  for (const auto& name : names) {
    const graph::DomainId domain = analysis.graph.find_domain(name);
    if (domain == graph::kNoId) continue;
    for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
      const auto contact = analysis.graph.first_contact(host, domain);
      if (!contact) continue;
      if (earliest == 0 || *contact < earliest) earliest = *contact;
    }
  }
  return earliest;
}

}  // namespace

double nearest_rank(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  const auto idx =
      static_cast<std::size_t>(std::max(0.0, std::ceil(q * n) - 1.0));
  return sample[std::min(idx, sample.size() - 1)];
}

LatencySummary summarize_latency(std::span<const IncidentEmission> emissions,
                                 bool provisional_only) {
  std::vector<double> latencies;
  latencies.reserve(emissions.size());
  for (const auto& emission : emissions) {
    if (provisional_only && !emission.provisional) continue;
    latencies.push_back(static_cast<double>(emission.latency_seconds));
  }
  LatencySummary summary;
  summary.count = latencies.size();
  if (latencies.empty()) return summary;
  summary.max_seconds = *std::max_element(latencies.begin(), latencies.end());
  summary.p50_seconds = nearest_rank(latencies, 0.50);
  summary.p99_seconds = nearest_rank(std::move(latencies), 0.99);
  return summary;
}

ContinuousEngine::ContinuousEngine(api::Detector& detector, SimClock& clock,
                                   EngineConfig config)
    : detector_(detector),
      clock_(clock),
      config_(std::move(config)),
      window_(config_.window) {
  assert(config_.window.valid());
}

std::size_t ContinuousEngine::poll(api::EventSource& source) {
  std::size_t consumed = 0;
  while (auto chunk = source.next_chunk()) {
    ++stats_.chunks;
    // Chunk day tags are non-decreasing and contiguous per day (the
    // EventSource contract), so a tag change is the day boundary — the
    // same trigger Detector::ingest uses.
    if (open_day_ && *open_day_ != chunk->day) close_day();
    if (!open_day_) open_day_ = chunk->day;
    for (const logs::ConnEvent& event : chunk->events) {
      clock_.observe(event.ts);
      roll_to(config_.window.tick_of(clock_.now()));
      window_.append(event, current_tick_, *open_day_);
      dirty_ = true;
      ++stats_.events;
      ++consumed;
    }
    stats_.buffered_events = window_.buffered_events();
    stats_.peak_buffered_events =
        std::max(stats_.peak_buffered_events, stats_.buffered_events);
  }
  RtMetrics& metrics = rt_metrics();
  metrics.backlog.set(static_cast<double>(window_.buffered_events()));
  metrics.window_buckets.set(static_cast<double>(window_.bucket_count()));
  return consumed;
}

void ContinuousEngine::advance() {
  roll_to(config_.window.tick_of(clock_.now()));
}

void ContinuousEngine::finish() {
  if (open_day_) close_day();
}

ContinuousReport ContinuousEngine::run(api::EventSource& source) {
  poll(source);
  finish();
  return take_report();
}

ContinuousReport ContinuousEngine::take_report() {
  stats_.buffered_events = window_.buffered_events();
  stats_.cached_partial_events = window_.cached_events();
  ContinuousReport report;
  report.days = std::move(day_reports_);
  report.emissions = std::move(emissions_);
  report.stats = stats_;
  report.tick_evaluations = std::move(tick_evaluations_);
  day_reports_.clear();
  emissions_.clear();
  tick_evaluations_.clear();
  return report;
}

void ContinuousEngine::roll_to(std::int64_t tick) {
  if (!have_tick_) {
    have_tick_ = true;
    current_tick_ = tick;
    return;
  }
  // Sim time is monotonic, so ticks only close forward. The first
  // boundary crossed gets its evaluation, which always clears the dirty
  // flag; every later tick of the gap would only count itself and expire,
  // and expiry at the last of them drops exactly what the walk would have.
  // So the rest of a gap closes in O(1) — a far-future timestamp costs one
  // step, not one per tick.
  if (current_tick_ >= tick) return;
  evaluate_tick(current_tick_);
  ++current_tick_;
  if (current_tick_ == tick) return;
  assert(!dirty_);
  // Unsigned: the distance between two int64 ticks always fits.
  const std::uint64_t skipped = static_cast<std::uint64_t>(tick) -
                                static_cast<std::uint64_t>(current_tick_);
  stats_.ticks_closed += skipped;
  rt_metrics().ticks.add(skipped);
  stats_.expired_events += window_.expire(tick - 1);
  stats_.buffered_events = window_.buffered_events();
  current_tick_ = tick;
}

void ContinuousEngine::evaluate_tick(std::int64_t tick) {
  RtMetrics& metrics = rt_metrics();
  ++stats_.ticks_closed;
  metrics.ticks.add(1);
  stats_.expired_events += window_.expire(tick);
  stats_.buffered_events = window_.buffered_events();
  if (!dirty_) return;  // nothing new since the last evaluation
  if (window_.window_events(tick) == 0) {
    dirty_ = false;
    return;
  }
  ++stats_.evaluations;
  metrics.evaluations.add(1);
  const obs::TraceSpan span("rt_tick_evaluate", "rt");
  // Always timed: the pair of clock reads is negligible next to the
  // evaluation and feeds the report's per-tick cost distribution
  // (tick_evaluations); the metrics registry only sees it when enabled.
  const auto tick_start = std::chrono::steady_clock::now();

  // Re-score the sliding window through the exact batch stages, then C&C
  // detection and (optionally) no-hint BP for community expansion. The
  // window's evidence graph is assembled, already finalized, from the
  // in-window sealed segments into the recycled scratch graph — restricted
  // to the domains new to the history. Every stage below starts from rare
  // destinations (new AND unpopular) and reads only their edges: rare
  // extraction probes each domain's novelty, automation and the C&C /
  // similarity features read a rare domain's hosts and edges, BP expands
  // through hosts to rare domains only, and an emission's evidence time is
  // a detected (rare) domain's first contact. A kept domain keeps all of
  // its hosts and edges, so the popularity cut is exact; a host with no
  // kept edge is left out, since no stage reaches it; and the kept hosts
  // and domains keep their relative order, so every id-ordered walk and
  // tie-break matches the full window graph's: the emissions are the
  // same. The tick's DayAnalysis is not reportable, though — its
  // total_domains / new_domains and host count cover the candidates only.
  core::Pipeline& pipeline = detector_.pipeline();
  const util::TimePoint close = config_.window.tick_end(tick);
  const util::Day day = util::day_of(close - 1);
  const profile::DomainHistory& history = pipeline.domain_history();
  const graph::DomainFilter candidates{
      history.generation(),
      [&history](std::string_view name) { return history.is_new(name); }};
  std::size_t window_events = 0;
  {
    const obs::TraceSpan assemble_span("rt_window_assemble", "rt");
    window_events = window_.assemble_window(tick, window_graph_, &candidates);
  }
  assert(window_events > 0);  // window_events(tick) > 0 above
  core::DayAnalysis analysis = pipeline.finish_day_graph(
      day, std::move(window_graph_), window_events);
  sync_cache_stats();

  std::vector<core::ScoredDomain> cc;
  {
    const obs::TraceSpan cc_span("rt_detect_cc", "rt");
    cc = pipeline.detect_cc(analysis);
  }
  std::vector<std::string> domains;
  domains.reserve(cc.size());
  for (const auto& scored : cc) domains.push_back(scored.name);
  std::vector<std::string> hosts;
  if (config_.provisional_bp && !cc.empty()) {
    const obs::TraceSpan bp_span("rt_bp_nohint", "rt");
    const core::BpRunReport bp = pipeline.run_bp_nohint(analysis, cc);
    for (const auto& detected : bp.domains) domains.push_back(detected.name);
    hosts = bp.hosts;
  }
  emit(analysis, domains, hosts, /*provisional=*/true, close, day);
  // Reclaim the window graph's allocations for the next tick
  // (`analysis` is done — nothing below reads it).
  window_graph_ = std::move(analysis.graph);
  dirty_ = false;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    tick_start)
          .count();
  tick_evaluations_.push_back(TickEvaluation{day, seconds});
  stats_.buffered_events = window_.buffered_events();
  stats_.cached_partial_events = window_.cached_events();
  if (obs::metrics().enabled()) {
    metrics.tick_seconds.observe(seconds);
    metrics.last_tick.set(seconds);
    metrics.backlog.set(static_cast<double>(window_.buffered_events()));
    metrics.cached_events.set(static_cast<double>(window_.cached_events()));
  }
}

void ContinuousEngine::sync_cache_stats() {
  const WindowAccumulator::Stats& window = window_.stats();
  RtMetrics& metrics = rt_metrics();
  metrics.buckets_sealed.add(window.segments_sealed - stats_.buckets_sealed);
  metrics.partial_absorbs.add(window.segments_read - stats_.partial_absorbs);
  metrics.merge_extends.add(window.front_kept - stats_.window_merge_extends);
  metrics.merge_rebuilds.add(window.front_moved - stats_.window_merge_rebuilds);
  stats_.buckets_sealed = window.segments_sealed;
  stats_.partial_absorbs = window.segments_read;
  stats_.window_merge_extends = window.front_kept;
  stats_.window_merge_rebuilds = window.front_moved;
}

void ContinuousEngine::close_day() {
  assert(open_day_);
  const obs::TraceSpan span("rt_day_close", "rt");
  const util::Day day = *open_day_;
  core::Pipeline& pipeline = detector_.pipeline();

  // Assemble the day's sealed segments in arrival order (sealing the tail
  // bucket no evaluation covered yet) — the same event sequence the batch
  // path would consume, so by the chunking-independence contract the
  // report and history update are bit-identical to run_day.
  graph::DayGraph merged;
  const std::size_t day_events = window_.assemble_day(day, merged);
  sync_cache_stats();
  const core::DayAnalysis analysis =
      pipeline.finish_day_graph(day, std::move(merged), day_events);
  core::DayReport report = pipeline.report_day(analysis, config_.seeds);

  window_.close_day(day);
  open_day_.reset();
  // Histories change with this close, so the next tick must re-score even
  // if no new events arrive before it closes. "Held" means raw or
  // sealed-segment events — sealing releases raw storage.
  dirty_ = window_.buffered_events() + window_.cached_events() > 0;

  pipeline.update_histories(analysis.graph);
  ++detector_.days_operated_;
  ++stats_.days_closed;
  rt_metrics().days_closed.add(1);

  std::vector<std::string> domains;
  for (const auto& scored : report.cc_domains) domains.push_back(scored.name);
  for (const auto& detected : report.nohint.domains)
    domains.push_back(detected.name);
  for (const auto& detected : report.sochints.domains)
    domains.push_back(detected.name);
  std::set<std::string> host_set(report.nohint.hosts.begin(),
                                 report.nohint.hosts.end());
  host_set.insert(report.sochints.hosts.begin(), report.sochints.hosts.end());
  const std::vector<std::string> hosts(host_set.begin(), host_set.end());
  emit(analysis, domains, hosts, /*provisional=*/false,
       util::day_start(day + 1), day);

  if (day_sink_) day_sink_(report);
  day_reports_.push_back(std::move(report));
}

void ContinuousEngine::emit(const core::DayAnalysis& analysis,
                            const std::vector<std::string>& domains,
                            const std::vector<std::string>& hosts,
                            bool provisional, util::TimePoint emission_time,
                            util::Day day) {
  if (domains.empty() && hosts.empty()) return;

  std::vector<std::string> fresh;
  for (const auto& name : domains) {
    if (!emitted_domains_.contains(name)) fresh.push_back(name);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  // Provisional evaluations announce only novelty; re-detections of
  // already-emitted domains wait for the authoritative day close, which
  // always refreshes the incident store (campaign recurrence tracking).
  if (provisional && fresh.empty()) return;

  const util::TimePoint event_time =
      earliest_contact(analysis, fresh.empty() ? domains : fresh);
  const bool grew = incidents_.touches(domains, hosts);
  const int incident_id =
      incidents_.ingest_community(day, domains, hosts, event_time);
  emitted_domains_.insert(fresh.begin(), fresh.end());
  if (fresh.empty()) return;  // finalized refresh of a known incident

  IncidentEmission emission;
  emission.incident_id = incident_id;
  emission.provisional = provisional;
  emission.new_incident = !grew;
  emission.day = day;
  emission.event_time = event_time;
  emission.emission_time = emission_time;
  emission.latency_seconds =
      event_time == 0 ? 0 : emission_time - event_time;
  emission.domains = std::move(fresh);
  emission.hosts = hosts;
  RtMetrics& metrics = rt_metrics();
  if (provisional) {
    ++stats_.provisional_emissions;
    metrics.provisional.add(1);
  } else {
    ++stats_.finalized_emissions;
    metrics.finalized.add(1);
  }
  metrics.emission_latency.observe(
      static_cast<double>(emission.latency_seconds));
  if (emission_sink_) emission_sink_(emission);
  emissions_.push_back(std::move(emission));
}

}  // namespace eid::rt

namespace eid::api {

rt::ContinuousReport Detector::run_continuous(EventSource& source,
                                              const rt::EngineConfig& config,
                                              rt::SimClock* clock) {
  rt::ReplayClock replay;
  rt::SimClock& driver = clock ? *clock : static_cast<rt::SimClock&>(replay);
  rt::ContinuousEngine engine(*this, driver, config);
  return engine.run(source);
}

}  // namespace eid::api
