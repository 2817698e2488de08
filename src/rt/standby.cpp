#include "rt/standby.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "storage/delta.h"

namespace eid::rt {

StandbyReplica::StandbyReplica(api::Detector& detector, StandbyConfig config)
    : detector_(detector), config_(std::move(config)) {}

bool StandbyReplica::observe(Files& files, bool& torn_tail,
                             storage::LoadStatus* status) {
  // A missing base reads as an impossible size; the load then reports why.
  std::error_code ec;
  files.base_size = std::filesystem::file_size(config_.state_path, ec);
  files.base_mtime = std::filesystem::last_write_time(config_.state_path, ec);
  storage::DeltaChainInfo info;
  if (!storage::read_delta_chain(storage::delta_chain_path(config_.state_path),
                                 info, status)) {
    return false;
  }
  files.chain_bytes = info.valid_bytes;
  torn_tail = info.torn_tail;
  return true;
}

bool StandbyReplica::load(const Files& files, storage::LoadStatus* status) {
  storage::ChainLoadReport report;
  if (!detector_.load_state(config_.state_path, &report, status)) return false;
  started_ = true;
  seen_ = files;
  base_crc_ = report.base_crc;
  last_seq_ = report.last_seq;
  // Only overwrite the cursor/incidents when the new chain carries them:
  // right after a compaction the chain is empty, and the previously
  // loaded frame's payload is still the latest known.
  if (report.has_cursor) {
    has_cursor_ = true;
    cursor_day_ = report.cursor_day;
    cursor_offset_ = report.cursor_offset;
  }
  if (report.has_incidents) {
    has_incidents_ = true;
    incidents_next_id_ = report.incidents_next_id;
    incidents_ = std::move(report.incidents);
  }
  return true;
}

bool StandbyReplica::start(storage::LoadStatus* status) {
  Files files;
  bool torn_tail = false;
  return observe(files, torn_tail, status) && load(files, status);
}

std::size_t StandbyReplica::poll(storage::LoadStatus* status) {
  ++stats_.polls;
  Files files;
  bool torn_tail = false;
  // A chain read failure is transient: keep the state we have, retry.
  if (!observe(files, torn_tail, status)) return 0;
  if (torn_tail) ++stats_.torn_waits;  // append in progress: wait
  if (started_ && files == seen_) return 0;
  const bool was_started = started_;
  const std::uint32_t base_crc = base_crc_;
  const std::uint64_t last_seq = last_seq_;
  if (!load(files, status)) {
    // Keep the state we have and wait for the files to change: a base
    // that cannot be loaded is not re-read every poll. Until the first
    // load succeeds there is nothing to keep, so that retries each poll.
    if (was_started) seen_ = files;
    return 0;
  }
  if (!was_started) return 0;
  if (base_crc_ != base_crc) {
    ++stats_.full_reloads;
    obs::metrics().counter("eid_standby_reloads_total").add(1);
    return 0;
  }
  const std::size_t gained =
      last_seq_ > last_seq ? static_cast<std::size_t>(last_seq_ - last_seq) : 0;
  stats_.frames_applied += gained;
  if (gained > 0) {
    obs::metrics().counter("eid_standby_frames_applied_total").add(gained);
  }
  return gained;
}

bool StandbyReplica::take_incidents(core::IncidentStore& store) const {
  if (!has_incidents_) return false;
  store.restore(incidents_, incidents_next_id_);
  return true;
}

std::filesystem::path heartbeat_path(const std::filesystem::path& state_path) {
  std::filesystem::path path = state_path;
  path += ".hb";
  return path;
}

bool touch_heartbeat(const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  out << "alive\n";
  out.flush();
  return static_cast<bool>(out);
}

double heartbeat_age_seconds(const std::filesystem::path& path) {
  std::error_code ec;
  const std::filesystem::file_time_type mtime =
      std::filesystem::last_write_time(path, ec);
  if (ec) return std::numeric_limits<double>::infinity();
  const auto now = std::filesystem::file_time_type::clock::now();
  const double age = std::chrono::duration<double>(now - mtime).count();
  return age < 0.0 ? 0.0 : age;  // clock skew / sub-tick touch
}

}  // namespace eid::rt
