// Hot-standby failover: a second monitor process that follows the
// primary's checkpoint (storage/delta.h) instead of the raw log and takes
// over the live tail when the primary's heartbeat goes stale. The replica
// is a primary that restarts each time the checkpoint on disk changes: it
// holds exactly the state a restart would load, through the same code.
//
// Protocol:
//   * the primary touches "<state>.hb" (heartbeat_path) on every poll
//     loop and saves a checkpoint after each day close and, when it
//     follows a live tail, after each incident emission — a delta frame
//     carrying the tail cursor and the incident store (CheckpointExtras),
//     or a full rewrite when its policy compacts. The replica reloads
//     once per save: a few times a day, one load each (README, "Hot
//     standby", has the measured rate and cost);
//   * each standby poll stats the base file (size, mtime) and scans the
//     chain's CRC-clean prefix. When neither changed since the last load
//     it does nothing (an append in progress shows only as a torn tail);
//     otherwise it re-loads base + chain through api::Detector::load_state.
//     A load on a new base counts as a full reload. A failed load keeps
//     the previous state; a bad base (once started) or a bad chain is
//     read once and not again until the files change;
//   * when heartbeat_age_seconds exceeds the configured staleness, the
//     standby owns the detector state the last load described: histories
//     and models as of the last day close, the primary's incident store,
//     and the cursor naming the day being tailed. After a clean load its
//     detector appends to the same chain, as a restarted primary does.
//     Takeover re-reads that day's log from offset 0 — histories only
//     advance at day close, so the rebuilt day report is bit-identical to
//     the one the uninterrupted primary would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "api/detector.h"
#include "core/incidents.h"

namespace eid::rt {

struct StandbyConfig {
  std::filesystem::path state_path;
  /// Heartbeat age (seconds) past which the primary counts as dead.
  double stale_after_seconds = 10.0;
};

struct StandbyStats {
  std::size_t polls = 0;
  std::size_t frames_applied = 0;  ///< frames gained on an unchanged base
  std::size_t full_reloads = 0;    ///< loads of a new base (compaction)
  std::size_t torn_waits = 0;      ///< polls that saw an append in progress
};

/// Keeps a warm Detector at the primary's last checkpoint.
class StandbyReplica {
 public:
  /// The detector must outlive the replica. It is wholly owned by the
  /// replica until takeover: start()/poll() overwrite its state.
  StandbyReplica(api::Detector& detector, StandbyConfig config);

  /// Load the base checkpoint plus its chain. False (with status) when the
  /// base cannot be loaded — e.g. the primary has not written its first
  /// checkpoint yet; poll() keeps retrying.
  bool start(storage::LoadStatus* status = nullptr);

  /// Re-load base + chain if either changed since the last load. Returns
  /// the frames gained on the same base; the first load and a load on a
  /// new base (counted in stats().full_reloads) return 0.
  std::size_t poll(storage::LoadStatus* status = nullptr);

  bool started() const { return started_; }
  std::uint64_t last_seq() const { return last_seq_; }

  /// Tail cursor from the newest loaded frame (where the primary was).
  bool has_cursor() const { return has_cursor_; }
  std::int64_t cursor_day() const { return cursor_day_; }
  std::uint64_t cursor_offset() const { return cursor_offset_; }

  /// Rebuild the primary's incident store for engine adoption at takeover
  /// (ContinuousEngine::restore_incidents). False when no loaded frame
  /// carried one.
  bool take_incidents(core::IncidentStore& store) const;

  const StandbyStats& stats() const { return stats_; }

 private:
  /// The primary's files as a load saw them: the base's size and mtime
  /// and the length of the chain's CRC-clean prefix.
  struct Files {
    std::uintmax_t base_size = 0;
    std::filesystem::file_time_type base_mtime{};
    std::uint64_t chain_bytes = 0;
    bool operator==(const Files&) const = default;
  };

  /// Stat the base and scan the chain; false + status when the chain
  /// cannot be read.
  bool observe(Files& files, bool& torn_tail, storage::LoadStatus* status);
  /// load_state + adopt the report; false (state untouched) on failure.
  bool load(const Files& files, storage::LoadStatus* status);

  api::Detector& detector_;
  StandbyConfig config_;
  bool started_ = false;
  Files seen_{};
  std::uint32_t base_crc_ = 0;
  std::uint64_t last_seq_ = 0;
  bool has_cursor_ = false;
  std::int64_t cursor_day_ = 0;
  std::uint64_t cursor_offset_ = 0;
  bool has_incidents_ = false;
  int incidents_next_id_ = 0;
  std::vector<core::Incident> incidents_;
  StandbyStats stats_{};
};

/// "<state>.hb" — the primary's liveness beacon (mtime is the signal).
std::filesystem::path heartbeat_path(const std::filesystem::path& state_path);

/// Rewrite the beacon so its mtime is "now". False on I/O failure.
bool touch_heartbeat(const std::filesystem::path& path);

/// Seconds since the beacon last moved; +infinity when it does not exist.
double heartbeat_age_seconds(const std::filesystem::path& path);

}  // namespace eid::rt
