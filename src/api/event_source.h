// Streaming ingestion API: a pull-based chunked iterator over reduced
// ConnEvents. The pipeline mines months of web-proxy/DNS logs —
// terabytes per month at enterprise scale — so entry points must never
// require a fully materialized per-day event vector. An EventSource hands
// out bounded chunks instead; api::Detector drives the incremental
// core::Pipeline path (DayAccumulator) from them, and concrete adapters
// exist for in-memory vectors (below), TSV log files and simulated
// enterprise traffic (api/sources.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "logs/records.h"
#include "util/time.h"

namespace eid::api {

/// Default events-per-chunk for sources that let the caller choose.
inline constexpr std::size_t kDefaultChunkEvents = 4096;

/// One batch of reduced events. The span points into source-owned storage
/// and is valid only until the next next_chunk() call on that source.
struct EventChunk {
  util::Day day = 0;
  std::span<const logs::ConnEvent> events;
};

/// Pull-based event stream. Chunks arrive in non-decreasing day order and
/// one day's chunks are contiguous, so consumers can detect day boundaries
/// without buffering. A day the source covers but that produced no events
/// is still announced with one empty chunk (day-boundary marker), so
/// ingestion commits it like any other day. Chunk
/// granularity is a source choice; consumers must produce identical
/// results for any chunking of the same event sequence (the DayAccumulator
/// contract).
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Next chunk, or std::nullopt once the stream is exhausted.
  virtual std::optional<EventChunk> next_chunk() = 0;

  /// Rewind to the beginning of the stream. Returns false when the source
  /// cannot rewind (e.g. forward-only simulators); the stream is then left
  /// unchanged.
  virtual bool reset() = 0;
};

/// Adapter for an in-memory day of events. Owns its events (move them in) or borrows them (pointer
/// form; the vector must outlive the source). Non-copyable/movable: the
/// owning form keeps an internal pointer into itself.
class VectorSource final : public EventSource {
 public:
  VectorSource(util::Day day, std::vector<logs::ConnEvent> events,
               std::size_t chunk_events = kDefaultChunkEvents)
      : day_(day),
        owned_(std::move(events)),
        events_(&owned_),
        chunk_events_(chunk_events) {}

  VectorSource(util::Day day, const std::vector<logs::ConnEvent>* events,
               std::size_t chunk_events = kDefaultChunkEvents)
      : day_(day), events_(events), chunk_events_(chunk_events) {}

  VectorSource(const VectorSource&) = delete;
  VectorSource& operator=(const VectorSource&) = delete;

  std::optional<EventChunk> next_chunk() override {
    const std::size_t size = events_->size();
    if (pos_ >= size) {
      // An empty day still announces its boundary once, so ingest()
      // commits it to the histories as a day.
      if (size == 0 && !delivered_empty_) {
        delivered_empty_ = true;
        return EventChunk{day_, {}};
      }
      return std::nullopt;
    }
    const std::size_t step = chunk_events_ == 0 ? size : chunk_events_;
    const std::size_t count = std::min(step, size - pos_);
    EventChunk chunk{day_, std::span(events_->data() + pos_, count)};
    pos_ += count;
    return chunk;
  }

  bool reset() override {
    pos_ = 0;
    delivered_empty_ = false;
    return true;
  }

 private:
  util::Day day_;
  std::vector<logs::ConnEvent> owned_;
  const std::vector<logs::ConnEvent>* events_;
  std::size_t chunk_events_;
  std::size_t pos_ = 0;
  bool delivered_empty_ = false;
};

/// Adapter for an in-memory *run* of consecutive days — days[i] is day
/// `first_day + i` — the multi-day sibling of VectorSource, and the
/// natural feed for the multi-day verbs (Detector::analyze_days /
/// run_days) and their benchmarks. Borrows the day vectors (they must
/// outlive the source) and is rewindable, so one materialized workload
/// can be replayed many times. Empty days
/// announce their boundary with one empty chunk, like VectorSource.
class MultiDaySource final : public EventSource {
 public:
  MultiDaySource(util::Day first_day,
                 const std::vector<std::vector<logs::ConnEvent>>* days,
                 std::size_t chunk_events = kDefaultChunkEvents)
      : first_day_(first_day), days_(days), chunk_events_(chunk_events) {}

  std::optional<EventChunk> next_chunk() override {
    while (day_index_ < days_->size()) {
      const std::vector<logs::ConnEvent>& events = (*days_)[day_index_];
      const util::Day day =
          first_day_ + static_cast<util::Day>(day_index_);
      if (events.empty()) {
        ++day_index_;
        pos_ = 0;
        return EventChunk{day, {}};
      }
      if (pos_ >= events.size()) {
        ++day_index_;
        pos_ = 0;
        continue;
      }
      const std::size_t step = chunk_events_ == 0 ? events.size() : chunk_events_;
      const std::size_t count = std::min(step, events.size() - pos_);
      EventChunk chunk{day, std::span(events.data() + pos_, count)};
      pos_ += count;
      return chunk;
    }
    return std::nullopt;
  }

  bool reset() override {
    day_index_ = 0;
    pos_ = 0;
    return true;
  }

 private:
  util::Day first_day_;
  const std::vector<std::vector<logs::ConnEvent>>* days_;
  std::size_t chunk_events_;
  std::size_t day_index_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace eid::api
