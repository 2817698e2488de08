// Detector checkpoint/restore: the full state an eid deployment accumulates
// over months — domain/UA histories, the top-sites whitelist, both trained
// scoring models, WHOIS training aggregates, external intel and lifetime
// counters — bundled into one binary container (storage/container.h) so a
// restarted process resumes exactly where the previous one stopped: a
// detector saved after day N and restored elsewhere produces bit-identical
// DayReports for day N+1 (tests/storage_checkpoint_test.cpp).
//
// All sections share one interned string table (sorted, front-coded), so
// a host name that appears in a thousand UA entries is written once and
// referenced by a 1-3 byte varint id — the compact on-disk interned format
// for month-scale histories the ROADMAP calls for.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "storage/container.h"

namespace eid::storage {

/// WHOIS aggregates accumulated during training. They seed the per-day
/// WhoisDefaults of every operation analysis, so a checkpoint without them
/// would not reproduce the uninterrupted run bit for bit.
struct TrainingStats {
  double whois_age_sum = 0.0;
  double whois_validity_sum = 0.0;
  std::uint64_t whois_samples = 0;
  bool models_ready = false;  ///< finalize_training()/set_models() happened
};

/// Lifetime counters beyond DomainHistory::days_ingested (which travels
/// inside the domain-history section).
struct Counters {
  std::uint64_t days_operated = 0;  ///< completed operation days (run_day)
};

/// Unfinalized regression rows accumulated during training, flattened
/// row-major. Carried in checkpoints taken before finalize_training() so
/// a crash mid-training resumes with the exact rows an uninterrupted run
/// would hand to the solver. Once the models are finalized the rows are
/// dropped (an operating detector never re-trains from them). Decoding
/// rejects rows of any width but this build's feature counts (Malformed).
struct TrainingRows {
  std::uint64_t cc_cols = 0;       ///< features::kCcFeatureCount when rows exist
  std::uint64_t sim_cols = 0;      ///< features::kSimFeatureCount when rows exist
  std::vector<double> cc;          ///< cc_cols doubles per labeled C&C row
  std::vector<double> cc_labels;   ///< one label per C&C row
  std::vector<double> sim;         ///< sim_cols doubles per similarity row
  std::vector<double> sim_labels;  ///< one label per similarity row

  bool empty() const { return cc_labels.empty() && sim_labels.empty(); }
};

/// Everything needed to resume an api::Detector in a fresh process.
struct DetectorState {
  core::PipelineConfig config{};
  profile::DomainHistory domain_history;
  profile::UaHistory ua_history;
  bool has_top_sites = false;  ///< a whitelist was installed when saved
  profile::TopSitesList top_sites;
  core::ScoredModel cc_model;
  core::ScoredModel sim_model;
  TrainingStats training{};
  std::vector<std::string> intel_domains;  ///< external IOC feed snapshot
  Counters counters{};
  TrainingRows training_rows{};  ///< non-empty only before models_ready
};

/// Borrowed view of a detector's state for encoding without copying the
/// month-scale histories (the daily save path). Decode always produces
/// the owning DetectorState. `top_sites` nullptr means "no whitelist
/// installed"; `intel_domains` nullptr means empty.
struct DetectorStateView {
  const core::PipelineConfig* config = nullptr;
  const profile::DomainHistory* domain_history = nullptr;
  const profile::UaHistory* ua_history = nullptr;
  const profile::TopSitesList* top_sites = nullptr;
  const core::ScoredModel* cc_model = nullptr;
  const core::ScoredModel* sim_model = nullptr;
  TrainingStats training{};
  const std::vector<std::string>* intel_domains = nullptr;
  Counters counters{};
  const TrainingRows* training_rows = nullptr;  ///< nullptr/empty == none
};

/// Borrow an owning state (helper for the forwarding overloads).
DetectorStateView view_of(const DetectorState& state);

// ---- Full detector state ----

/// Encode to container bytes.
std::string encode_detector_state(const DetectorStateView& state);
inline std::string encode_detector_state(const DetectorState& state) {
  return encode_detector_state(view_of(state));
}

std::optional<DetectorState> decode_detector_state(std::string_view bytes,
                                                   LoadStatus* status = nullptr);

/// Atomic tmp-file + rename write of the encoded state. When `binding` is
/// given, a successful save stores the new file's base_binding there.
bool save_detector_state(const DetectorStateView& state,
                         const std::filesystem::path& path,
                         LoadStatus* status = nullptr,
                         std::uint32_t* binding = nullptr);
inline bool save_detector_state(const DetectorState& state,
                                const std::filesystem::path& path,
                                LoadStatus* status = nullptr) {
  return save_detector_state(view_of(state), path, status);
}

std::optional<DetectorState> load_detector_state(
    const std::filesystem::path& path, LoadStatus* status = nullptr);

/// The id a delta chain (storage/delta.h) uses to name its base
/// checkpoint: the CRC-32 of the container's section CRC trailers, in
/// order. It sees every payload byte through its trailer, where a CRC of
/// the whole file cannot (a payload followed by its own CRC-32 adds
/// nothing to a CRC-32 remainder, so every base with the same section ids
/// and sizes would share one value). `bytes` is a container that parses;
/// anything else yields 0.
std::uint32_t base_binding(std::string_view bytes);

}  // namespace eid::storage
