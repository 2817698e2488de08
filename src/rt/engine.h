// ContinuousEngine — real-time continuous detection over any EventSource.
//
// The paper's detector is day-batched: an infection at 09:00 surfaces at
// midnight. This engine keeps the batch path's exact semantics at day
// close while emitting *provisional* incidents with bounded latency in
// between:
//
//   * ingestion is pull-based (one chunk in flight at a time — the source
//     produces only when the engine is ready, which is the backpressure
//     contract; buffered memory is bounded by window ∪ open day);
//   * sim time advances through a SimClock (rt/clock.h); whenever it
//     crosses a tick boundary, the sliding window (rt/window.h) is
//     re-scored: rare-destination + automation analysis, C&C detection
//     and no-hint belief propagation over the window's events, all
//     through the same core::Pipeline stages the batch path uses. Each
//     bucket's events are sealed once into flat segments; every tick
//     assembles its finalized evidence graph from them
//     (graph::WindowDictionary::assemble) restricted to the domains new
//     to the history — the only domains those stages read, since every
//     detection starts from rare (new AND unpopular) destinations. The
//     restriction keeps each kept domain whole, drops the hosts with no
//     kept edge (no stage reaches them) and keeps the remaining hosts
//     and kept domains in their full-graph order, so the emissions are
//     the ones the full window graph gives
//     (tests/rt_incremental_test.cpp). A tick walks the segments' cached
//     kept-domain positions and host lists and lays out only the
//     candidates' edges, times, UAs and IPs (about 2% of the window's
//     edges on the AC workload) and their hosts, plus the scoring stages
//     over them, whether the window is still growing (the first day) or
//     sliding;
//   * domains never emitted before are announced immediately as
//     provisional IncidentEmissions carrying event-time → emission-time
//     latency (bounded by detection lag + one tick), and merged into the
//     cross-day core::IncidentStore;
//   * at each day boundary the day's segments are assembled in arrival
//     order, so the day-close DayReport
//     and history updates are bit-identical to api::Detector::run_day on
//     the same stream (tests/rt_continuous_test.cpp), and the day's
//     detections are finalized.
//
// Drive it either through api::Detector::run_continuous (replay a whole
// stream) or incrementally with poll()/advance()/finish() for live tails
// (`enterprise_monitor --follow`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/detector.h"
#include "core/incidents.h"
#include "rt/clock.h"
#include "rt/window.h"

namespace eid::rt {

struct EngineConfig {
  WindowConfig window{};
  /// SOC seeds for the day-close report (the sochints BP mode), exactly
  /// like the seeds argument of run_day.
  core::SocSeeds seeds{};
  /// Run no-hint belief propagation at every tick evaluation (community
  /// expansion in the provisional emissions). Off = C&C detection only
  /// per tick, which is cheaper; day close always runs both BP modes.
  bool provisional_bp = true;
};

/// One incident announcement. Provisional emissions fire at tick close as
/// soon as a never-before-emitted domain crosses the detection thresholds
/// over the sliding window; finalized emissions fire at day close from the
/// authoritative (batch-identical) DayReport. `latency_seconds` is the
/// event-time → emission-time gap: from the first observed contact of the
/// newly emitted domains to the sim time of the announcement.
struct IncidentEmission {
  int incident_id = -1;
  bool provisional = true;
  bool new_incident = false;          ///< opened (vs. grew) an incident
  util::Day day = 0;                  ///< day tag of the evaluation
  util::TimePoint event_time = 0;     ///< earliest evidence contact
  util::TimePoint emission_time = 0;  ///< sim time of the announcement
  std::int64_t latency_seconds = 0;   ///< emission_time - event_time
  std::vector<std::string> domains;   ///< newly implicated domains
  std::vector<std::string> hosts;     ///< implicated hosts (community)
};

struct EngineStats {
  std::size_t events = 0;
  std::size_t chunks = 0;
  std::size_t ticks_closed = 0;
  std::size_t evaluations = 0;        ///< tick closes that re-scored the window
  std::size_t days_closed = 0;
  std::size_t expired_events = 0;     ///< dropped by window expiry
  /// Raw events currently buffered. Evaluated buckets are sealed into
  /// flat segments that release their raw events, so this (and the peak)
  /// is the unsealed backlog, not the whole window ∪ open day.
  std::size_t buffered_events = 0;
  std::size_t peak_buffered_events = 0;
  std::size_t cached_partial_events = 0;  ///< events inside sealed segments
  std::size_t provisional_emissions = 0;
  std::size_t finalized_emissions = 0;
  // Window assembly (rt/window.h WindowAccumulator::Stats). The names
  // predate the assembly and are kept for existing readers.
  std::size_t buckets_sealed = 0;   ///< segments sealed
  std::size_t partial_absorbs = 0;  ///< sealed segments read by assemblies
  /// Evaluations whose window front (first in-window bucket) is unchanged
  /// since the previous evaluation.
  std::size_t window_merge_extends = 0;
  /// Evaluations whose front moved, the first one, and those that follow
  /// an invalidation (a late append into a sealed bucket).
  std::size_t window_merge_rebuilds = 0;
};

/// Wall cost of one window evaluation.
struct TickEvaluation {
  util::Day day = 0;     ///< day tag of the evaluation
  double seconds = 0.0;  ///< assembly + scoring + emission
};

/// Everything a finished continuous run produced.
struct ContinuousReport {
  std::vector<core::DayReport> days;      ///< one per closed day, in order
  std::vector<IncidentEmission> emissions;
  EngineStats stats{};
  /// Every window evaluation, in tick order — the per-tick cost
  /// distribution (bench_latency_rt's tick_p50/p99 per day). Always
  /// recorded (two clock reads per evaluation); pure side channel.
  std::vector<TickEvaluation> tick_evaluations;
};

/// Nearest-rank quantile of an unsorted sample: the element of rank
/// ceil(q·n) − 1 in sorted order; 0 when the sample is empty.
double nearest_rank(std::vector<double> sample, double q);

/// Latency distribution over a set of emissions (nearest-rank quantiles).
struct LatencySummary {
  std::size_t count = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

LatencySummary summarize_latency(std::span<const IncidentEmission> emissions,
                                 bool provisional_only = false);

class ContinuousEngine {
 public:
  /// The detector must outlive the engine and be trained (models ready),
  /// like any run_day caller. The clock must outlive the engine; pass a
  /// ReplayClock for log replay, RealTimeClock for live tails.
  ContinuousEngine(api::Detector& detector, SimClock& clock,
                   EngineConfig config);

  /// Pull chunks until the source reports exhaustion, advancing sim time
  /// from the clock and closing any tick boundaries crossed. Returns the
  /// number of events consumed — for live tails, call again after the
  /// source has more data. One chunk is in flight at any moment.
  std::size_t poll(api::EventSource& source);

  /// Close tick boundaries up to the clock's current time without new
  /// events (live tails where the clock moves while the log is quiet).
  void advance();

  /// Close the open day (stream end / orderly shutdown). Idempotent.
  void finish();

  /// Replay convenience: poll to exhaustion, finish, and hand back the
  /// collected report (day reports, emissions, stats).
  ContinuousReport run(api::EventSource& source);

  /// Live-emission hook, fired as each IncidentEmission is recorded.
  void set_emission_sink(std::function<void(const IncidentEmission&)> sink) {
    emission_sink_ = std::move(sink);
  }

  /// Day-close hook, fired with each authoritative DayReport.
  void set_day_sink(std::function<void(const core::DayReport&)> sink) {
    day_sink_ = std::move(sink);
  }

  const EngineStats& stats() const { return stats_; }
  const core::IncidentStore& incidents() const { return incidents_; }
  const std::vector<core::DayReport>& day_reports() const { return day_reports_; }
  const std::vector<IncidentEmission>& emissions() const { return emissions_; }

  /// Move the accumulated results out (resets the collected lists, not
  /// the detection state).
  ContinuousReport take_report();

  /// Hot-standby takeover (rt/standby.h): adopt the failed primary's
  /// cross-day incident store before the first poll, so post-takeover
  /// emissions continue its incident ids and domains it already announced
  /// are not re-announced as new.
  void restore_incidents(core::IncidentStore incidents) {
    incidents_ = std::move(incidents);
    emitted_domains_.clear();
    for (const core::Incident& incident : incidents_.incidents()) {
      emitted_domains_.insert(incident.domains.begin(),
                              incident.domains.end());
    }
  }

 private:
  void roll_to(std::int64_t tick);
  void evaluate_tick(std::int64_t tick);
  void close_day();
  void sync_cache_stats();
  void emit(const core::DayAnalysis& analysis,
            const std::vector<std::string>& domains,
            const std::vector<std::string>& hosts, bool provisional,
            util::TimePoint emission_time, util::Day day);

  api::Detector& detector_;
  SimClock& clock_;
  EngineConfig config_;
  WindowAccumulator window_;
  core::IncidentStore incidents_;
  std::set<std::string> emitted_domains_;

  /// Recycled window graph: each tick's assembled graph is reclaimed from
  /// the consumed DayAnalysis after emission, so the next assembly reuses
  /// its per-edge allocations instead of re-mallocing the window.
  graph::DayGraph window_graph_;

  bool have_tick_ = false;
  std::int64_t current_tick_ = 0;
  bool dirty_ = false;  ///< events appended since the last evaluation
  std::optional<util::Day> open_day_;

  std::vector<core::DayReport> day_reports_;
  std::vector<IncidentEmission> emissions_;
  std::vector<TickEvaluation> tick_evaluations_;
  EngineStats stats_{};
  std::function<void(const IncidentEmission&)> emission_sink_;
  std::function<void(const core::DayReport&)> day_sink_;
};

}  // namespace eid::rt
