// Crash-safe delta checkpoints: an append-only chain of delta frames next
// to a full EIDSTOR1 checkpoint, so daily saves cost O(day's growth), not
// O(month-scale history).
//
//   <state>        full checkpoint (storage/state.h), rewritten on
//                  compaction (every CheckpointPolicy::full_every saves)
//   <state>.delta  frame chain, truncated on every compaction
//
//   frame   := magic(8 = "EIDDELT1") payload_size(u32le) payload
//              crc32(u32le, over payload)
//   payload := a standard EIDSTOR1 container (storage/container.h)
//
// Each frame is a complete container with its own frame-local string
// table, a DeltaHeader section binding it to one specific base checkpoint
// (storage::base_binding) and one position in the chain (seq: 1, 2, ...),
// plus the day's changes: domains first seen, UA entries touched
// (absolute replacements), the always-small absolute sections
// (config, models, training stats, counters), training rows appended since
// the previous frame, and — when present — the rt tail cursor and the
// incident-store snapshot a hot standby needs to take over.
//
// Recovery contract: a torn tail (crash mid-append) is detected by the
// frame CRC and truncated by the next append; a frame whose base binding
// or seq does not match — or whose payload fails section CRCs or
// decoding — degrades the load to everything before it (worst case: the
// last full checkpoint), never to an error. See src/storage/FORMAT.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/incidents.h"
#include "storage/state.h"

namespace eid::storage {

inline constexpr std::string_view kDeltaMagic = "EIDDELT1";

/// Chain file next to a full checkpoint: "<path>.delta".
std::filesystem::path delta_chain_path(const std::filesystem::path& path);

/// One UA entry for encoding, borrowed from a live UaHistory.
struct DeltaUaEntryView {
  std::string_view ua;
  bool popular = false;
  std::vector<std::string_view> hosts;  ///< empty when popular
};

/// Borrowed inputs for one frame (the daily save path never copies the
/// month-scale histories). Pointers may be null only where noted.
struct DeltaInputs {
  std::uint32_t base_crc = 0;  ///< base_binding() of the base checkpoint
  std::uint64_t seq = 0;       ///< 1 for the first frame after a full save
  std::int64_t day = 0;        ///< day the frame was written for
  std::uint64_t days_ingested = 0;  ///< absolute DomainHistory day counter
  const std::vector<std::string>* new_domains = nullptr;  ///< required
  std::vector<DeltaUaEntryView> ua_entries;
  const core::PipelineConfig* config = nullptr;   ///< required
  const core::ScoredModel* cc_model = nullptr;    ///< required
  const core::ScoredModel* sim_model = nullptr;   ///< required
  TrainingStats training{};
  Counters counters{};
  const TrainingRows* training_rows = nullptr;  ///< rows since previous frame
  const std::vector<std::string>* intel_domains = nullptr;  ///< when changed
  const profile::TopSitesList* top_sites = nullptr;         ///< when changed
  bool has_cursor = false;
  std::int64_t cursor_day = 0;       ///< day the tail cursor points into
  std::uint64_t cursor_offset = 0;   ///< byte offset into that day's log
  const core::IncidentStore* incidents = nullptr;  ///< when tracking incidents
};

/// One decoded frame (owning).
struct DeltaFrame {
  std::uint32_t base_crc = 0;
  std::uint64_t seq = 0;
  std::int64_t day = 0;
  std::uint64_t days_ingested = 0;
  std::vector<std::string> new_domains;
  struct UaEntry {
    std::string ua;
    bool popular = false;
    std::vector<std::string> hosts;
  };
  std::vector<UaEntry> ua_entries;
  core::PipelineConfig config{};
  core::ScoredModel cc_model{};
  core::ScoredModel sim_model{};
  TrainingStats training{};
  Counters counters{};
  TrainingRows training_rows{};  ///< rows to append, may be empty
  bool has_intel = false;
  std::vector<std::string> intel_domains;
  bool has_top_sites = false;
  std::vector<std::string> top_sites;
  bool has_cursor = false;
  std::int64_t cursor_day = 0;
  std::uint64_t cursor_offset = 0;
  bool has_incidents = false;
  int incidents_next_id = 0;
  std::vector<core::Incident> incidents;
};

/// Encode one frame payload (an EIDSTOR1 container; the caller wraps it
/// in the frame header via append_delta_frame).
std::string encode_delta_frame(const DeltaInputs& inputs);

/// Decode a frame payload. nullopt + status on any failure.
std::optional<DeltaFrame> decode_delta_frame(std::string_view payload,
                                             LoadStatus* status = nullptr);

/// Append one encoded frame to the chain, truncating any torn tail a
/// previous crash left first, then fsyncing. On failure the chain holds at
/// worst a torn tail that the next append (or load) handles.
bool append_delta_frame(const std::filesystem::path& chain_path,
                        std::string_view payload,
                        LoadStatus* status = nullptr);

/// Frame-level scan of a chain file (CRC-checked, not decoded).
struct DeltaChainInfo {
  struct Frame {
    std::uint64_t offset = 0;  ///< frame start (magic) in the file
    std::string payload;       ///< CRC-verified container bytes
  };
  std::vector<Frame> frames;       ///< complete, CRC-clean frames in order
  std::uint64_t valid_bytes = 0;   ///< chain prefix covered by `frames`
  std::uint64_t file_bytes = 0;    ///< whole file size
  bool torn_tail = false;          ///< bytes past valid_bytes exist
  std::string tail_detail;         ///< why the scan stopped
};

/// Scan a chain file. A missing file yields an empty (ok) info; any other
/// read failure returns false with `status`.
bool read_delta_chain(const std::filesystem::path& chain_path,
                      DeltaChainInfo& info, LoadStatus* status = nullptr);

/// Apply one decoded frame on top of a detector state. Cannot fail:
/// decoding already checked everything a frame carries.
void apply_delta_frame(DetectorState& state, const DeltaFrame& frame);

/// What a chain-aware load did, for logging and for resuming the chain.
struct ChainLoadReport {
  std::uint32_t base_crc = 0;        ///< base_binding() of the base file
  std::uint64_t last_seq = 0;        ///< seq of the last applied frame
  std::size_t frames_applied = 0;
  std::size_t frames_dropped = 0;    ///< CRC-clean frames not applied
  bool degraded = false;             ///< stopped early on a bad frame
  bool torn_tail = false;            ///< chain ended in a torn append
  /// Some frame was bound by the whole-file CRC older chains carry; the
  /// next delta save rewrites the base instead of appending.
  bool legacy_binding = false;
  std::string detail;                ///< why frames were dropped, if any
  // Latest failover payload seen across applied frames:
  bool has_cursor = false;
  std::int64_t cursor_day = 0;
  std::uint64_t cursor_offset = 0;
  bool has_incidents = false;
  int incidents_next_id = 0;
  std::vector<core::Incident> incidents;
};

/// Load a full checkpoint plus its delta chain: decode the base file, then
/// apply every frame that decodes and whose base binding (or the legacy
/// whole-file CRC, see ChainLoadReport::legacy_binding) and seq check
/// out, stopping (degraded, not failed) at the first frame that does not.
/// nullopt only when the base itself cannot be loaded. This is the one
/// restore path: restart, resume and the hot standby all go through it
/// (api::Detector::load_state). Traced and counted like
/// load_detector_state: a `state_load` span, and the eid_state_loads_total,
/// eid_state_loaded_bytes_total (base plus chain file) and
/// eid_state_load_seconds series.
std::optional<DetectorState> load_detector_state_chain(
    const std::filesystem::path& path, ChainLoadReport* report = nullptr,
    LoadStatus* status = nullptr);

}  // namespace eid::storage
