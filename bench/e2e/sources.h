// Bench-side EventSources: they hand the detector exactly the chunks the
// shipped api::TsvFileSource produces and note, on the way, what the
// benchmark measures at the source boundary — when each day's file is
// first pulled, when each chunk is handed over, and (traced runs) one
// parse span per pull.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "api/sources.h"
#include "rt/window.h"
#include "spans.h"

namespace e2e {

struct DayFile {
  eid::util::Day day = 0;
  std::filesystem::path path;
};

/// What the bench's sources record while the detector pulls from them.
struct PullMeter {
  SpanRecorder* recorder = nullptr;  ///< traced runs only
  int parent = -1;                   ///< span the pulls happen under
  std::vector<WallClock::time_point> day_starts;
  std::vector<WallClock::time_point> chunk_marks;  ///< non-empty hand-offs
  // TsvFileSource::Stats summed over the files read to the end.
  std::size_t lines = 0;
  std::size_t malformed = 0;
  std::size_t events = 0;
  std::uint64_t bytes = 0;
};

/// Streams a run of day files as one day-tagged stream, opening each
/// file's TsvFileSource only when the previous one is exhausted (a day
/// starts when the detector first pulls from its file). With one file it
/// is the nightly job's per-day source.
class DayFilesSource final : public eid::api::EventSource {
 public:
  DayFilesSource(std::span<const DayFile> files,
                 const eid::logs::DhcpTable& leases,
                 const eid::logs::ProxyReductionConfig& reduction,
                 PullMeter& meter)
      : files_(files), leases_(&leases), reduction_(&reduction), meter_(&meter) {}

  std::optional<eid::api::EventChunk> next_chunk() override {
    while (current_ || next_ < files_.size()) {
      if (!current_) {
        meter_->day_starts.push_back(WallClock::now());
        current_.emplace(files_[next_].path, files_[next_].day, *leases_,
                         *reduction_);
        day_ = files_[next_].day;
        ++next_;
      }
      std::optional<eid::api::EventChunk> chunk;
      {
        const Scope span(meter_->recorder, "logs.parse_reduce", meter_->parent,
                         day_);
        chunk = current_->next_chunk();
      }
      if (chunk) {
        if (!chunk->events.empty()) {
          meter_->chunk_marks.push_back(WallClock::now());
        }
        return chunk;
      }
      const eid::api::TsvFileSource::Stats& stats = current_->stats();
      meter_->lines += stats.lines;
      meter_->malformed += stats.malformed;
      meter_->events += stats.events;
      meter_->bytes += stats.byte_offset;
      current_.reset();
    }
    return std::nullopt;
  }

  bool reset() override { return false; }

 private:
  std::span<const DayFile> files_;
  const eid::logs::DhcpTable* leases_;
  const eid::logs::ProxyReductionConfig* reduction_;
  PullMeter* meter_;
  std::size_t next_ = 0;
  eid::util::Day day_ = 0;
  std::optional<eid::api::TsvFileSource> current_;
};

/// Re-slices a stream for rt::ContinuousEngine::poll so that each event
/// which moves the replay high-water mark into a new tick arrives alone,
/// in a poll of its own: that boundary poll is then one window evaluation
/// (plus a day close when the day changes) and one event's ingest. The
/// events between boundaries arrive in polls of their own, ended just
/// before the next boundary event. The high-water mark follows
/// rt::ReplayClock, so the split sits exactly where the engine evaluates.
class TickSplitSource final : public eid::api::EventSource {
 public:
  TickSplitSource(eid::api::EventSource& inner, eid::rt::WindowConfig window)
      : inner_(&inner), window_(window) {}

  std::optional<eid::api::EventChunk> next_chunk() override {
    if (end_poll_) {
      end_poll_ = false;
      return std::nullopt;
    }
    if (pos_ >= chunk_.events.size()) {
      std::optional<eid::api::EventChunk> next = inner_->next_chunk();
      if (!next) {
        exhausted_ = true;
        return std::nullopt;
      }
      chunk_ = *next;
      pos_ = 0;
      if (chunk_.events.empty()) return chunk_;  // empty-day marker
    }
    const std::span<const eid::logs::ConnEvent> events = chunk_.events;
    if (crosses(events[pos_])) {
      high_water_ = events[pos_].ts;
      boundary_ = true;
      end_poll_ = true;
      return eid::api::EventChunk{chunk_.day, events.subspan(pos_++, 1)};
    }
    std::size_t end = pos_;
    while (end < events.size() && !crosses(events[end])) {
      if (!have_high_water_ || events[end].ts > high_water_) {
        high_water_ = events[end].ts;
        have_high_water_ = true;
      }
      ++end;
    }
    const eid::api::EventChunk out{chunk_.day,
                                   events.subspan(pos_, end - pos_)};
    pos_ = end;
    end_poll_ = end < events.size();
    return out;
  }

  bool reset() override { return false; }

  /// True once the inner stream is exhausted.
  bool exhausted() const { return exhausted_; }

  /// Whether the poll just finished held a boundary event (clears it).
  bool take_boundary() {
    const bool was = boundary_;
    boundary_ = false;
    return was;
  }

 private:
  bool crosses(const eid::logs::ConnEvent& event) const {
    return have_high_water_ &&
           window_.tick_of(event.ts) > window_.tick_of(high_water_);
  }

  eid::api::EventSource* inner_;
  eid::rt::WindowConfig window_;
  eid::api::EventChunk chunk_{};
  std::size_t pos_ = 0;
  bool have_high_water_ = false;
  eid::util::TimePoint high_water_ = 0;
  bool end_poll_ = false;
  bool boundary_ = false;
  bool exhausted_ = false;
};

}  // namespace e2e
