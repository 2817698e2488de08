// eid::api::Detector — the public facade over the Fig. 1 system, built
// around streaming ingestion. Every verb consumes an EventSource instead
// of a materialized event vector, so the same code path serves in-memory
// days, replayed TSV log files, live simulation and NetFlow — and scales
// to out-of-core datasets: a day is folded into the analysis chunk by
// chunk (graph/interner updates per chunk, profile lookups and feature
// analysis once at day end), never holding the raw day in memory.
//
//   Detector detector(config, whois);
//   detector.ingest(bootstrap_source);          // profiling (histories)
//   detector.ingest(training_source, intel);    // labeled regression rows
//   detector.finalize_training();
//   DayReport report = detector.run_day(day_source, day, seeds);
//
// Results are bit-identical for any chunking of the same event sequence
// (see tests/api_equivalence_test.cpp).
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/event_source.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/status.h"

namespace eid::storage {
struct ChainLoadReport;
struct DetectorState;
}

namespace eid::core {
class IncidentStore;

/// Retired day-path parallelism knobs ({threads, shards, day overlap
/// depth}). The day path is single-threaded and nothing reads these
/// fields; the struct remains so existing Detector::set_parallelism
/// callers compile.
struct Parallelism {
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::size_t depth = 1;
};
}

namespace eid::rt {
class ContinuousEngine;
class SimClock;
struct EngineConfig;
struct ContinuousReport;
}

namespace eid::api {

/// Aggregate counters for one ingest() call.
struct IngestReport {
  std::size_t days = 0;
  std::size_t chunks = 0;
  std::size_t events = 0;
};

/// One glanceable runtime-health view for a supervisor or status endpoint,
/// assembled from this detector's counters and the process metrics
/// registry.
struct HealthSnapshot {
  std::size_t days_operated = 0;       ///< committed operation days
  std::uint64_t events_ingested = 0;   ///< eid_ingest_events_total
  double last_tick_seconds = 0.0;      ///< latest rt evaluation wall time
  double rt_backlog_events = 0.0;      ///< events held by the rt window
};

/// How Detector::save_state_delta balances save cost against chain length.
struct CheckpointPolicy {
  /// Full-checkpoint rewrite (compaction) every this many saves; the saves
  /// in between append O(day's growth) delta frames to "<state>.delta".
  /// 0 or 1 degrades to a full rewrite on every save.
  std::size_t full_every = 7;
};

/// Failover payload carried inside delta frames (storage/delta.h): where
/// in the durable log the day tail stands, and the incident store a hot
/// standby resumes emission dedup from. Both optional.
struct CheckpointExtras {
  bool has_cursor = false;
  util::Day cursor_day = 0;         ///< day the tail cursor points into
  std::uint64_t cursor_offset = 0;  ///< byte offset into that day's log
  const core::IncidentStore* incidents = nullptr;
};

/// Per-day callback of Detector::analyze_days, called on the caller's
/// thread once the day's last chunk has been consumed.
using DayAnalysisFn =
    std::function<void(util::Day day, const core::DayAnalysis& analysis)>;

class Detector {
 public:
  Detector(core::PipelineConfig config, const features::WhoisSource& whois)
      : pipeline_(config, whois) {}

  // ---- Training (Fig. 1, left) ----

  /// Stream days into the profiling stage: domain/UA histories only.
  /// Day boundaries come from the chunk tags; each day is committed to the
  /// histories when its last chunk has been consumed.
  IngestReport ingest(EventSource& source);

  /// Stream labeled days into regression training: per day, incremental
  /// analysis, then C&C + similarity row extraction against `intel`, then
  /// the end-of-day history update.
  IngestReport ingest(EventSource& source, const core::LabelFn& intel);

  /// Fit the C&C and similarity regressions from the accumulated rows.
  core::TrainingReport finalize_training() {
    return pipeline_.finalize_training();
  }

  /// Install externally-fit models (e.g. storage::load_scored_model).
  void set_models(core::ScoredModel cc, core::ScoredModel sim) {
    pipeline_.set_models(std::move(cc), std::move(sim));
  }

  /// Install a global-popularity whitelist; must outlive the detector.
  /// (load_state() replaces an installed list with a detector-owned copy
  /// when the checkpoint carries one.)
  void set_top_sites(const profile::TopSitesList* top_sites) {
    owned_top_sites_.reset();
    pipeline_.set_top_sites(top_sites);
    delta_.top_sites_dirty = true;
  }

  /// External intelligence (IOC) snapshot carried with the detector state.
  /// intel_fn() adapts it to the LabelFn the training verbs take.
  void set_intel_domains(std::vector<std::string> domains);
  const std::vector<std::string>& intel_domains() const {
    return intel_domains_;
  }
  core::LabelFn intel_fn() const;

  /// No-op: the day path runs on the calling thread. Kept only for callers
  /// that still pass core::Parallelism.
  void set_parallelism(core::Parallelism) {}

  // ---- Operation (Fig. 1, right) ----

  /// Build one day's pre-threshold analysis incrementally from the stream.
  /// The source is expected to carry a single day's traffic; the analysis
  /// is keyed by `day` regardless of chunk tags. No history update.
  core::DayAnalysis analyze_stream(EventSource& source, util::Day day) const;

  /// Multi-day analysis over a day-tagged stream: per day, incremental
  /// ingest, finish_day, `commit(day, analysis)` (threshold sweeps,
  /// reporting — whatever the caller does with a day), then the end-of-day
  /// history update.
  IngestReport analyze_days(EventSource& source, const DayAnalysisFn& commit);

  /// Multi-day operation: analyze_days + report_day per day (the
  /// equivalent of calling run_day per day).
  std::vector<core::DayReport> run_days(EventSource& source,
                                        const core::SocSeeds& seeds = {});

  /// Full operation day: analyze_stream + C&C detection + both BP modes +
  /// end-of-day history update (from the day graph — the raw events are
  /// never retained).
  core::DayReport run_day(EventSource& source, util::Day day,
                          const core::SocSeeds& seeds = {});

  /// End-of-day history update for a day analyzed with analyze_stream()
  /// (callers that sweep thresholds before committing the day).
  void update_histories(const core::DayAnalysis& analysis) {
    pipeline_.update_histories(analysis.graph);
  }

  /// Continuous operation (rt/engine.h): replay the source through a
  /// sliding-window micro-batch engine that emits provisional incidents at
  /// sub-day latency and closes each day with a DayReport bit-identical to
  /// run_day on the same stream. Day boundaries come from the chunk tags,
  /// like ingest(). Sim time is driven by `clock`; nullptr uses a
  /// ReplayClock (sim time = high-water mark of event timestamps).
  /// Defined in rt/engine.cpp.
  rt::ContinuousReport run_continuous(EventSource& source,
                                      const rt::EngineConfig& config,
                                      rt::SimClock* clock = nullptr);

  // ---- Checkpoint/restore (storage/state.h) ----

  /// Snapshot everything the detector has accumulated — histories, trained
  /// models, top-sites whitelist, intel, config, counters, unfinalized
  /// training rows — into one binary state file (atomic tmp-file +
  /// rename), and remove any delta chain next to it: a chain never
  /// outlives the base it was built on. Returns false with the reason in
  /// `status` on failure.
  bool save_state(const std::filesystem::path& path,
                  storage::LoadStatus* status = nullptr) const;

  /// Restore a snapshot into this detector, replacing its configuration,
  /// histories, models, whitelist and counters. The WHOIS source from
  /// construction is kept. A detector restored from a day-N checkpoint
  /// produces bit-identical DayReports for day N+1 versus the
  /// uninterrupted run (tests/storage_checkpoint_test.cpp).
  bool load_state(const std::filesystem::path& path,
                  storage::LoadStatus* status = nullptr);

  /// Apply an already-decoded snapshot (callers that inspect a
  /// storage::load_detector_state() result before committing to it avoid
  /// decoding the file twice).
  void restore_state(storage::DetectorState state);

  // ---- Delta checkpoints + failover (storage/delta.h) ----

  /// Incremental daily save: every policy.full_every-th call rewrites the
  /// full checkpoint (and truncates the chain); the calls in between
  /// append one delta frame — the domains first seen, UA entries touched
  /// and training rows appended since the previous save, plus the always-
  /// small absolute sections — costing O(day's growth) instead of
  /// O(month-scale history). `extras` rides the failover payload (rt tail
  /// cursor, incident snapshot) into the frame. Falls back to a full
  /// rewrite whenever the chain bookkeeping is cold (first save, path
  /// change, degraded load, failed append). Resuming via load_state() is
  /// bit-identical to resuming from a full save.
  bool save_state_delta(const std::filesystem::path& path,
                        const CheckpointPolicy& policy = {},
                        storage::LoadStatus* status = nullptr,
                        const CheckpointExtras& extras = {});

  /// load_state that also replays the delta chain next to `path` and
  /// reports what it applied (frames, failover cursor, incidents). On a
  /// clean replay the detector continues appending to the same chain; on a
  /// degraded one the next save_state_delta compacts. A failed load leaves
  /// the detector as it was. The hot standby (rt/standby.h) catches up by
  /// calling this again whenever the files change.
  bool load_state(const std::filesystem::path& path,
                  storage::ChainLoadReport* report,
                  storage::LoadStatus* status = nullptr);

  /// Completed operation days (run_day calls), restored by load_state().
  std::size_t days_operated() const { return days_operated_; }

  // ---- Observability (obs/metrics.h, obs/trace.h) ----

  /// Merged point-in-time view of the process metrics registry — render
  /// with obs::to_prometheus or obs::to_json. Collection is on by
  /// default; obs::metrics().set_enabled(false) reduces every probe to a
  /// relaxed load + branch.
  obs::MetricsSnapshot metrics_snapshot() const {
    return obs::metrics().snapshot();
  }

  /// Install (or clear, with nullptr) the process-wide trace sink; every
  /// pipeline stage, rt tick and state save/load then
  /// records a span. Pure side channel: reports stay bit-identical.
  static void set_trace_sink(obs::TraceSink* sink) {
    obs::set_trace_sink(sink);
  }

  /// Runtime health digest (see HealthSnapshot). Defined in detector.cpp.
  HealthSnapshot health_snapshot() const;

  /// The underlying pipeline, for threshold sweeps (detect_cc,
  /// run_bp_nohint, ...) and model/history access.
  core::Pipeline& pipeline() { return pipeline_; }
  const core::Pipeline& pipeline() const { return pipeline_; }

 private:
  /// The continuous engine drives the same day-close bookkeeping run_day
  /// owns (days_operated_), so day-N checkpoints mean the same thing in
  /// both modes.
  friend class rt::ContinuousEngine;

  /// Delta-chain bookkeeping between saves. Mutable because a plain
  /// (const) save_state() to the tracked path invalidates the chain and
  /// must deactivate it — otherwise later delta frames would reference a
  /// base checkpoint that no longer exists and silently drop on load.
  struct DeltaTracker {
    bool active = false;             ///< appending to `path`'s chain
    std::filesystem::path path;
    std::uint32_t base_crc = 0;      ///< storage::base_binding of the base
    std::uint64_t next_seq = 1;
    std::size_t saves_since_full = 0;
    std::size_t cc_rows_mark = 0;    ///< training rows already persisted
    std::size_t sim_rows_mark = 0;
    bool intel_dirty = false;        ///< re-ship intel in the next frame
    bool top_sites_dirty = false;    ///< re-ship the whitelist likewise
  };

  /// Encode the full state, write it atomically to `path` and remove the
  /// chain next to it (save_state and compaction). The new base's chain
  /// binding, nullopt when the write failed.
  std::optional<std::uint32_t> write_base(const std::filesystem::path& path,
                                          storage::LoadStatus* status) const;

  /// Full rewrite + tracker (re)prime — the compaction path of
  /// save_state_delta. `degenerate` skips priming (policy always-full).
  bool full_checkpoint(const std::filesystem::path& path, bool degenerate,
                       storage::LoadStatus* status);

  core::Pipeline pipeline_;
  std::unique_ptr<profile::TopSitesList> owned_top_sites_;
  std::vector<std::string> intel_domains_;
  std::size_t days_operated_ = 0;
  mutable DeltaTracker delta_;
};

}  // namespace eid::api
