#include "api/detector.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace eid::api {

IngestReport Detector::ingest(EventSource& source) {
  IngestReport report;
  std::optional<core::ProfileAccumulator> accumulator;
  util::Day current = 0;
  while (auto chunk = source.next_chunk()) {
    if (accumulator && chunk->day != current) {
      pipeline_.finish_profile(std::move(*accumulator));
      accumulator.reset();
      ++report.days;
    }
    if (!accumulator) accumulator.emplace(pipeline_.begin_profile());
    current = chunk->day;
    accumulator->add_chunk(chunk->events);
    ++report.chunks;
    report.events += chunk->events.size();
  }
  if (accumulator) {
    pipeline_.finish_profile(std::move(*accumulator));
    ++report.days;
  }
  return report;
}

IngestReport Detector::ingest(EventSource& source, const core::LabelFn& intel) {
  return analyze_days(
      source, [this, &intel](util::Day, const core::DayAnalysis& analysis) {
        pipeline_.train_from_analysis(analysis, intel);
      });
}

IngestReport Detector::analyze_days(EventSource& source,
                                    const DayAnalysisFn& commit) {
  IngestReport report;
  std::optional<core::DayAccumulator> accumulator;
  const auto finish = [&] {
    const core::DayAnalysis analysis =
        pipeline_.finish_day(std::move(*accumulator));
    accumulator.reset();
    commit(analysis.day, analysis);
    pipeline_.update_histories(analysis.graph);
    ++report.days;
  };
  while (auto chunk = source.next_chunk()) {
    if (accumulator && accumulator->day() != chunk->day) finish();
    if (!accumulator) accumulator.emplace(pipeline_.begin_day(chunk->day));
    accumulator->add_chunk(chunk->events);
    ++report.chunks;
    report.events += chunk->events.size();
  }
  if (accumulator) finish();
  return report;
}

std::vector<core::DayReport> Detector::run_days(EventSource& source,
                                                const core::SocSeeds& seeds) {
  std::vector<core::DayReport> reports;
  analyze_days(source,
               [&](util::Day, const core::DayAnalysis& analysis) {
                 reports.push_back(pipeline_.report_day(analysis, seeds));
                 ++days_operated_;
               });
  return reports;
}

core::DayAnalysis Detector::analyze_stream(EventSource& source,
                                           util::Day day) const {
  core::DayAccumulator accumulator = pipeline_.begin_day(day);
  while (auto chunk = source.next_chunk()) {
    accumulator.add_chunk(chunk->events);
  }
  return pipeline_.finish_day(std::move(accumulator));
}

core::DayReport Detector::run_day(EventSource& source, util::Day day,
                                  const core::SocSeeds& seeds) {
  const core::DayAnalysis analysis = analyze_stream(source, day);
  core::DayReport report = pipeline_.report_day(analysis, seeds);
  pipeline_.update_histories(analysis.graph);
  ++days_operated_;
  return report;
}

void Detector::set_intel_domains(std::vector<std::string> domains) {
  std::sort(domains.begin(), domains.end());
  domains.erase(std::unique(domains.begin(), domains.end()), domains.end());
  intel_domains_ = std::move(domains);
  delta_.intel_dirty = true;
}

core::LabelFn Detector::intel_fn() const {
  // Sorted + deduped in set_intel_domains, so membership is a binary search
  // over the snapshot (copied: the returned closure may outlive *this).
  return [domains = intel_domains_](const std::string& domain) {
    return std::binary_search(domains.begin(), domains.end(), domain);
  };
}

namespace {

/// Flatten the pipeline's unfinalized training rows (from the given row
/// marks) into the storage interchange format. No-op once models are
/// finalized — an operating detector never re-solves from rows.
void export_unfinalized_rows(const core::Pipeline& pipeline,
                             std::size_t cc_first, std::size_t sim_first,
                             storage::TrainingRows& rows) {
  if (pipeline.models_ready()) return;
  pipeline.export_training_rows(cc_first, sim_first, rows.cc, rows.cc_labels,
                                rows.sim, rows.sim_labels);
  rows.cc_cols = features::kCcFeatureCount;
  rows.sim_cols = features::kSimFeatureCount;
}

/// Borrow everything — a daily checkpoint must not deep-copy month-scale
/// histories just to read them once.
storage::DetectorStateView make_state_view(
    const core::Pipeline& pipeline, const std::vector<std::string>& intel,
    std::size_t days_operated, const storage::TrainingRows* rows) {
  storage::DetectorStateView state;
  state.config = &pipeline.config();
  state.domain_history = &pipeline.domain_history();
  state.ua_history = &pipeline.ua_history();
  state.top_sites = pipeline.top_sites();
  state.cc_model = &pipeline.cc_model();
  state.sim_model = &pipeline.sim_model();
  const core::Pipeline::WhoisTrainingStats whois =
      pipeline.whois_training_stats();
  state.training.whois_age_sum = whois.age_sum;
  state.training.whois_validity_sum = whois.validity_sum;
  state.training.whois_samples = whois.samples;
  state.training.models_ready = pipeline.models_ready();
  state.intel_domains = &intel;
  state.counters.days_operated = days_operated;
  state.training_rows = rows;
  return state;
}

}  // namespace

std::optional<std::uint32_t> Detector::write_base(
    const std::filesystem::path& path, storage::LoadStatus* status) const {
  storage::TrainingRows rows;
  export_unfinalized_rows(pipeline_, 0, 0, rows);
  const storage::DetectorStateView state = make_state_view(
      pipeline_, intel_domains_, days_operated_, rows.empty() ? nullptr : &rows);
  std::uint32_t binding = 0;
  if (!storage::save_detector_state(state, path, status, &binding)) {
    return std::nullopt;
  }
  // Only after the new base is durable: a crash in between leaves the old
  // chain beside a base it does not bind to, and its frames drop on load.
  std::error_code ec;
  std::filesystem::remove(storage::delta_chain_path(path), ec);
  return binding;
}

bool Detector::save_state(const std::filesystem::path& path,
                          storage::LoadStatus* status) const {
  const bool ok = write_base(path, status).has_value();
  if (ok && delta_.path == path) delta_.active = false;
  return ok;
}

bool Detector::full_checkpoint(const std::filesystem::path& path,
                               bool degenerate, storage::LoadStatus* status) {
  const std::optional<std::uint32_t> binding = write_base(path, status);
  if (!binding || degenerate) {
    delta_.active = false;
    if (binding) pipeline_.set_history_journaling(false);
    return binding.has_value();
  }
  delta_.active = true;
  delta_.path = path;
  delta_.base_crc = *binding;
  delta_.next_seq = 1;
  delta_.saves_since_full = 0;
  delta_.cc_rows_mark = pipeline_.cc_training_rows();
  delta_.sim_rows_mark = pipeline_.sim_training_rows();
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
  pipeline_.set_history_journaling(true);  // fresh journal from this base
  return true;
}

bool Detector::save_state_delta(const std::filesystem::path& path,
                                const CheckpointPolicy& policy,
                                storage::LoadStatus* status,
                                const CheckpointExtras& extras) {
  const bool degenerate = policy.full_every <= 1;
  if (degenerate || !delta_.active || delta_.path != path ||
      delta_.saves_since_full + 1 >= policy.full_every) {
    return full_checkpoint(path, degenerate, status);
  }
  if (delta_.top_sites_dirty && pipeline_.top_sites() == nullptr) {
    // Frames can replace a whitelist but carry no "cleared" marker;
    // compact instead of diverging a replica.
    return full_checkpoint(path, false, status);
  }
  const core::Pipeline::HistoryDelta hist = pipeline_.drain_history_journal();
  storage::DeltaInputs inputs;
  inputs.base_crc = delta_.base_crc;
  inputs.seq = delta_.next_seq;
  inputs.day = extras.has_cursor ? extras.cursor_day
                                 : static_cast<util::Day>(days_operated_);
  inputs.days_ingested = pipeline_.domain_history().days_ingested();
  inputs.new_domains = &hist.new_domains;
  const profile::UaHistory& uas = pipeline_.ua_history();
  inputs.ua_entries.reserve(hist.touched_uas.size());
  for (const std::string& ua : hist.touched_uas) {
    bool popular = false;
    std::span<const util::InternId> host_ids;
    if (!uas.entry_view(ua, popular, host_ids)) continue;
    storage::DeltaUaEntryView entry;
    entry.ua = ua;
    entry.popular = popular;
    entry.hosts.reserve(host_ids.size());
    for (const util::InternId id : host_ids) {
      entry.hosts.push_back(uas.host_name(id));
    }
    inputs.ua_entries.push_back(std::move(entry));
  }
  inputs.config = &pipeline_.config();
  inputs.cc_model = &pipeline_.cc_model();
  inputs.sim_model = &pipeline_.sim_model();
  const core::Pipeline::WhoisTrainingStats whois =
      pipeline_.whois_training_stats();
  inputs.training.whois_age_sum = whois.age_sum;
  inputs.training.whois_validity_sum = whois.validity_sum;
  inputs.training.whois_samples = whois.samples;
  inputs.training.models_ready = pipeline_.models_ready();
  inputs.counters.days_operated = days_operated_;
  storage::TrainingRows rows;
  export_unfinalized_rows(pipeline_, delta_.cc_rows_mark, delta_.sim_rows_mark,
                          rows);
  if (!rows.empty()) inputs.training_rows = &rows;
  if (delta_.intel_dirty) inputs.intel_domains = &intel_domains_;
  if (delta_.top_sites_dirty) inputs.top_sites = pipeline_.top_sites();
  if (extras.has_cursor) {
    inputs.has_cursor = true;
    inputs.cursor_day = extras.cursor_day;
    inputs.cursor_offset = extras.cursor_offset;
  }
  inputs.incidents = extras.incidents;
  const std::string payload = storage::encode_delta_frame(inputs);
  if (!storage::append_delta_frame(storage::delta_chain_path(path), payload,
                                   status)) {
    // The drained journal is gone; cold-start the chain so the next save
    // full-rewrites and nothing is lost.
    delta_.active = false;
    return false;
  }
  ++delta_.next_seq;
  ++delta_.saves_since_full;
  delta_.cc_rows_mark = pipeline_.cc_training_rows();
  delta_.sim_rows_mark = pipeline_.sim_training_rows();
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
  obs::metrics().counter("eid_state_delta_frames_total").add(1);
  return true;
}

bool Detector::load_state(const std::filesystem::path& path,
                          storage::LoadStatus* status) {
  return load_state(path, nullptr, status);
}

bool Detector::load_state(const std::filesystem::path& path,
                          storage::ChainLoadReport* report,
                          storage::LoadStatus* status) {
  storage::ChainLoadReport local;
  storage::ChainLoadReport& chain = report != nullptr ? *report : local;
  std::optional<storage::DetectorState> state =
      storage::load_detector_state_chain(path, &chain, status);
  if (!state) return false;
  restore_state(std::move(*state));
  if (!chain.degraded && !chain.legacy_binding) {
    // Clean replay (a torn tail is fine — append truncates it): continue
    // appending to the same chain from the next sequence number. A chain
    // on the legacy binding is not extended: the next save compacts it.
    delta_.active = true;
    delta_.path = path;
    delta_.base_crc = chain.base_crc;
    delta_.next_seq = chain.last_seq + 1;
    delta_.saves_since_full = chain.frames_applied;
    delta_.cc_rows_mark = pipeline_.cc_training_rows();
    delta_.sim_rows_mark = pipeline_.sim_training_rows();
    delta_.intel_dirty = false;
    delta_.top_sites_dirty = false;
    pipeline_.set_history_journaling(true);
  }
  return true;
}

void Detector::restore_state(storage::DetectorState state) {
  delta_.active = false;  // chain bookkeeping is cold until a load primes it
  pipeline_.set_history_journaling(false);
  pipeline_.set_config(state.config);
  pipeline_.restore_histories(std::move(state.domain_history),
                              std::move(state.ua_history));
  pipeline_.restore_models(std::move(state.cc_model),
                           std::move(state.sim_model),
                           state.training.models_ready);
  pipeline_.restore_whois_training_stats(
      {state.training.whois_age_sum, state.training.whois_validity_sum,
       static_cast<std::size_t>(state.training.whois_samples)});
  pipeline_.clear_training_rows();
  // Decoding pinned the rows to this build's widths, so they always fit.
  const bool rows_fit = pipeline_.import_training_rows(
      state.training_rows.cc, state.training_rows.cc_labels,
      state.training_rows.sim, state.training_rows.sim_labels);
  assert(rows_fit);
  (void)rows_fit;
  if (state.has_top_sites) {
    owned_top_sites_ =
        std::make_unique<profile::TopSitesList>(std::move(state.top_sites));
    pipeline_.set_top_sites(owned_top_sites_.get());
  } else {
    owned_top_sites_.reset();
    pipeline_.set_top_sites(nullptr);
  }
  intel_domains_ = std::move(state.intel_domains);
  days_operated_ = static_cast<std::size_t>(state.counters.days_operated);
  delta_.intel_dirty = false;
  delta_.top_sites_dirty = false;
}

HealthSnapshot Detector::health_snapshot() const {
  obs::MetricsRegistry& registry = obs::metrics();
  HealthSnapshot health;
  health.days_operated = days_operated_;
  health.events_ingested = registry.counter("eid_ingest_events_total").value();
  health.last_tick_seconds = registry.gauge("eid_rt_last_tick_seconds").value();
  health.rt_backlog_events =
      registry.gauge("eid_rt_poll_backlog_events").value();
  return health;
}

}  // namespace eid::api
