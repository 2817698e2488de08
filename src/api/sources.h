// Concrete EventSource adapters for the workloads the system ingests:
//
//  * TsvFileSource   — replayed TSV log files (logs/io.h line formats).
//                      Each line is tokenized in place and reduced
//                      straight into a reused event slot, chunk by chunk,
//                      so a multi-terabyte file never has to fit in
//                      memory. Malformed lines (rejected by
//                      logs::parse_*_fields) are counted, skipped, never
//                      aborting.
//  * SimSource       — live simulated enterprise traffic over a day range
//                      (sim::EnterpriseSimulator), day by day.
//
// All adapters emit the same reduced ConnEvent stream, so every workload
// flows through one uniform api::Detector entry point.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <vector>

#include "api/event_source.h"
#include "logs/dhcp.h"
#include "logs/reduction.h"
#include "sim/enterprise.h"

namespace eid::api {

/// Streams one day's TSV log file (DNS or proxy flavor) as reduced events.
/// The file is read in kBlockBytes blocks and split into lines in place
/// (memchr), in batch and tail mode alike; no line is copied. Each line is
/// split into field views (logs::parse_dns_fields /
/// logs::parse_proxy_fields) and reduced by logs::DnsReducer /
/// logs::ProxyReducer directly into a reused ConnEvent slot; no owning
/// record is built. The proxy reducer lives as long as the source, so its
/// memos of destinations and leases span the whole file. A chunk closes
/// after `chunk_records` parsed lines and is then sorted by timestamp
/// (logs::sort_by_time), so it equals logs::reduce_* over the same lines'
/// parse_*_line records. With an unsorted file the concatenated stream is
/// only chunk-locally ordered. Detections do not depend on that order
/// (edge timestamps are re-sorted at finalize), but report bytes may:
/// cc_domains[].period_seconds is taken from one host's edge, picked in
/// the order the day graph interned the hosts, which is arrival order, so
/// a different chunking can change it.
class TsvFileSource final : public EventSource {
 public:
  /// Per-file ingestion accounting, surfaced to operators (a deployment
  /// must notice a collector that starts writing garbage).
  struct Stats {
    std::size_t lines = 0;      ///< non-empty lines read
    std::size_t parsed = 0;     ///< lines that parsed (kept or not)
    std::size_t malformed = 0;  ///< lines logs::parse_*_fields rejected
    std::size_t events = 0;     ///< reduced events handed out
    /// Tail mode: times the file was detected as rotated or truncated
    /// (inode/device changed, or it shrank below the cursor) and re-read
    /// from offset 0.
    std::size_t rotations = 0;
    /// Tail mode: transient open/read failures absorbed (each backs the
    /// retry cadence off exponentially; any successful poll resets it).
    std::size_t transient_errors = 0;
    /// Byte offset just past the last *complete* line consumed — the
    /// resume point for tail mode, and an operator-visible progress
    /// cursor for batch replay.
    std::uint64_t byte_offset = 0;
    /// Bytes of a partially written trailing line seen at the end of the
    /// last tail-mode poll (no newline yet, so not parsed and not counted
    /// malformed). 0 once the newline lands or outside tail mode. Lets an
    /// operator distinguish "collector idle" from "collector stalled
    /// mid-line" — also the eid_source_partial_line_bytes gauge.
    std::size_t partial_line_bytes = 0;
    bool opened = false;
  };

  /// Proxy flavor. `leases` must outlive the source.
  TsvFileSource(std::filesystem::path path, util::Day day,
                const logs::DhcpTable& leases,
                logs::ProxyReductionConfig reduction,
                std::size_t chunk_records = kDefaultChunkEvents);

  /// DNS flavor.
  TsvFileSource(std::filesystem::path path, util::Day day,
                logs::DnsReductionConfig reduction,
                std::size_t chunk_records = kDefaultChunkEvents);

  /// Bytes the line reader asks the file for at a time.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  std::optional<EventChunk> next_chunk() override;
  bool reset() override;

  /// Tail a growing file (`enterprise_monitor --follow`). next_chunk()
  /// then never reports end-of-stream as final: when the file is
  /// exhausted it returns std::nullopt for *now*, and a later call
  /// resumes at the last complete line's byte offset to pick up appended
  /// data. A partially written trailing line (no newline yet) is left
  /// untouched — not parsed, not counted malformed — until its newline
  /// lands. A file that does not exist yet is retried on every call.
  /// The day-boundary marker for an all-empty file is suppressed (a tail
  /// never knows the day is over; the engine closes days from chunk tags
  /// or finish()).
  void set_tail(bool enabled) { tail_ = enabled; }

  /// Tail mode resume (failover takeover / checkpointed cursor): skip the
  /// file prefix a previous process already consumed. Call before the
  /// first next_chunk(); the skipped bytes are not re-counted in the
  /// process metrics.
  void resume_at(std::uint64_t byte_offset) {
    stats_.byte_offset = byte_offset;
    published_.byte_offset = byte_offset;
  }

  /// Per-source ingestion accounting. The same counts feed the process
  /// metrics registry (eid_source_* series) as deltas after every
  /// next_chunk() call; this struct stays the per-file view.
  const Stats& stats() const { return stats_; }

 private:
  enum class Format { Dns, Proxy };

  void open();
  /// The next line of the file, without its newline, in `line` (a view
  /// into the block, valid until the next call); false once the file
  /// holds no more bytes for now. `complete` is false for trailing bytes
  /// with no newline after them (yet): they stay buffered, so a tail poll
  /// that finds the rest of the line appended reads it whole.
  bool read_line(std::string_view& line, bool& complete);
  /// Consume the bytes read_line last returned as an incomplete line.
  void take_partial_line() { block_begin_ = block_end_; }
  void publish_stats();
  /// Tail mode: did the file under `path_` rotate (new inode/device) or
  /// shrink below the cursor? Detecting it resets the cursor to 0.
  bool detect_rotation();
  /// Count a transient open/read failure and double the retry backoff
  /// (capped): the next `backoff_remaining_` polls return "nothing yet"
  /// without touching the file.
  void note_transient_error();

  std::filesystem::path path_;
  util::Day day_;
  Format format_;
  std::optional<logs::ProxyReducer> proxy_;  ///< proxy flavor only
  logs::DnsReductionConfig dns_reduction_;
  std::size_t chunk_records_;

  std::ifstream file_;
  /// Line reader: bytes [block_begin_, block_end_) of `block_` are read
  /// and not yet consumed; they start at file offset stats_.byte_offset.
  std::vector<char> block_;
  std::size_t block_begin_ = 0;
  std::size_t block_end_ = 0;
  /// False after open(): the next read first seeks to stats_.byte_offset.
  bool positioned_ = false;
  Stats stats_;
  Stats published_;  ///< registry counters already cover these amounts
  /// Event slots, reused chunk after chunk (strings keep their capacity);
  /// a chunk is the prefix of kept events.
  std::vector<logs::ConnEvent> buffer_;
  std::vector<logs::TimeKey> sort_keys_;  ///< sort_by_time scratch
  bool empty_marker_sent_ = false;
  bool tail_ = false;

  // Tail-mode file identity (rotation detection) and retry backoff.
  bool identity_known_ = false;
  std::uint64_t file_dev_ = 0;
  std::uint64_t file_ino_ = 0;
  std::size_t backoff_polls_ = 0;     ///< current backoff width (polls)
  std::size_t backoff_remaining_ = 0; ///< polls left before the next retry
};

/// Streams simulated enterprise traffic for [first, last], one day at a
/// time, in caller-sized chunks. Forward-only (simulators advance their
/// DHCP world chronologically), so reset() returns false.
class SimSource final : public EventSource {
 public:
  SimSource(sim::EnterpriseSimulator& simulator, util::Day first,
            util::Day last, std::size_t chunk_events = kDefaultChunkEvents);

  std::optional<EventChunk> next_chunk() override;
  bool reset() override { return false; }

 private:
  sim::EnterpriseSimulator* simulator_;
  util::Day next_day_;
  util::Day last_;
  util::Day current_day_ = 0;
  std::size_t chunk_events_;

  std::vector<logs::ConnEvent> buffer_;
  std::size_t pos_ = 0;
};

}  // namespace eid::api
