// Sliding-window micro-batch storage for the continuous engine.
//
// Events are appended in arrival order into *buckets*, one bucket per
// (tick, day-tag) pair; buckets form a monotone sequence because sim time
// only moves forward. Two consumers read them back, both in exact arrival
// order:
//
//   * the per-tick provisional evaluation scores every bucket still
//     inside the sliding window (window_seconds of sim time), and
//   * the authoritative day close covers every bucket tagged with the
//     closing day — the same event sequence the batch path would have
//     seen, so the result reproduces run_day() bit for bit (the
//     chunking-independence contract).
//
// A bucket is sealed the first time an evaluation covers it: its raw
// events are translated once into a flat graph::SealedSegment in the ids
// of one graph::WindowDictionary, and released. An append that lands in
// an already-sealed bucket (arrival behind an evaluated tick) starts a raw
// tail that the next read seals as another segment, so a bucket is the
// ordered list of its segments.
//
// Every evaluation assembles its window graph from scratch: the in-window
// segments, walked in order, are laid out straight into a finalized
// graph::DayGraph (WindowDictionary::assemble — no per-bucket graphs, no
// running merge to extend or rebuild, no hash probe of a window name
// except to build the output interners). One path serves the growing
// window (the first day), the sliding one (every tick after it) and the
// day close, which assembles the day's buckets. A tick evaluation passes
// a domain filter (the engine's: "new to the domain history"), so it
// walks only each segment's cached kept-domain positions, plus a
// mark-only pass over the segments' host lists that ranks hosts by first
// appearance, and lays out only the kept domains' edges, times, UAs and
// IPs and the hosts of those edges — the tick's cost follows the
// candidate evidence (a few percent of the window's edges and times on
// the AC workload) and its newest bucket, while the day close assembles
// everything, unfiltered. The events' hashing is paid once at seal time,
// through one recycled ingest graph.
//
// A bucket is dropped only when it has slid out of the window AND its day
// has been closed; the window never truncates an open day. Dropping a
// bucket releases its segments' dictionary references, and the dictionary
// is compacted whenever it holds more than twice the entries its live
// segments reference. Memory is therefore bounded by (window ∪ open day)
// — the continuous engine's backpressure story is pull-based ingestion
// plus this bound, not an unbounded queue.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "graph/day_graph.h"
#include "graph/window_dictionary.h"
#include "logs/records.h"
#include "util/time.h"

namespace eid::rt {

/// Tick/window geometry. Ticks must tile the day exactly so day closes
/// coincide with tick boundaries, and the window must be a whole number of
/// ticks so expiry drops whole buckets.
struct WindowConfig {
  std::int64_t tick_seconds = 300;                      ///< micro-batch size
  std::int64_t window_seconds = util::kSecondsPerDay;   ///< evidence horizon

  bool valid() const {
    return tick_seconds > 0 && util::kSecondsPerDay % tick_seconds == 0 &&
           window_seconds >= tick_seconds &&
           window_seconds % tick_seconds == 0;
  }

  std::int64_t window_ticks() const { return window_seconds / tick_seconds; }

  /// Tick index containing sim time t (floor division, correct for t < 0
  /// and free of overflow over the whole int64 range).
  std::int64_t tick_of(util::TimePoint t) const {
    return t >= 0 ? t / tick_seconds : -((-(t + 1)) / tick_seconds) - 1;
  }

  /// Sim time at which tick `index` closes (exclusive end), saturated to
  /// the int64 range: the tick holding INT64_MAX ends at INT64_MAX.
  util::TimePoint tick_end(std::int64_t index) const {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    if (index >= kMax / tick_seconds) return kMax;
    if (index + 1 < kMin / tick_seconds) return kMin;
    return (index + 1) * tick_seconds;
  }
};

/// Arrival-ordered micro-batch buckets with window expiry, sealed
/// segments and the window assembly.
/// Not thread-safe: owned and driven by one engine.
class WindowAccumulator {
 public:
  explicit WindowAccumulator(WindowConfig config) : config_(config) {}

  const WindowConfig& config() const { return config_; }

  /// Append one event observed during `tick` while ingesting a chunk
  /// tagged `day`. Ticks must be non-decreasing (sim time is monotonic).
  /// An append that lands in an already-sealed bucket (out-of-order
  /// arrival behind an evaluated tick) joins that bucket's raw tail — its
  /// exact end-of-bucket arrival position — and marks the window
  /// invalidated.
  void append(const logs::ConnEvent& event, std::int64_t tick, util::Day day);

  /// Mark every bucket tagged `day` as closed (eligible for expiry once
  /// outside the window).
  void close_day(util::Day day);

  /// Drop buckets that are both outside the window ending at `tick` (i.e.
  /// older than tick - window_ticks + 1) and day-closed, then compact the
  /// dictionary if it holds more than twice what the live segments use.
  /// Returns the number of events dropped (raw or sealed).
  std::size_t expire(std::int64_t tick);

  /// Evaluation entry: seal every bucket up to and including `tick`, then
  /// assemble the finalized graph of the window ending at `tick` into
  /// `out` (recycling its allocations) — bit-identical to ingesting the
  /// window's events sequentially and finalizing, or, with a `filter`,
  /// that graph restricted to the kept domains and their hosts
  /// (graph::WindowDictionary::assemble). Returns the number of events the
  /// window represents; 0 (and `out` untouched) when the window is empty.
  std::size_t assemble_window(std::int64_t tick, graph::DayGraph& out,
                              const graph::DomainFilter* filter = nullptr);

  /// Day close: seal every bucket tagged `day` and assemble their
  /// segments, in arrival order, into `out`. Returns the day's event
  /// count.
  std::size_t assemble_day(util::Day day, graph::DayGraph& out);

  /// Bookkeeping for engine stats / obs counters.
  struct Stats {
    std::size_t segments_sealed = 0;  ///< seals (raw events released)
    std::size_t segments_read = 0;    ///< segments walked by assemblies
    std::size_t front_kept = 0;   ///< window evaluations, front unchanged
    std::size_t front_moved = 0;  ///< ... front moved, first, or invalidated
    std::size_t invalidations = 0;  ///< late appends into sealed buckets
  };
  const Stats& stats() const { return stats_; }

  /// Events inside the window ending at `tick` (raw or sealed).
  std::size_t window_events(std::int64_t tick) const;

  /// Raw events currently buffered. Sealed buckets have released their raw
  /// storage, so this is the unsealed backlog — the memory the window
  /// pins beyond its flat segments.
  std::size_t buffered_events() const { return buffered_events_; }

  /// Events represented by sealed segments still in the deque.
  std::size_t cached_events() const { return cached_events_; }

  std::size_t bucket_count() const { return buckets_.size(); }

  /// Window dictionary entries held / referenced by live segments (see
  /// graph::WindowDictionary::size and live).
  std::size_t dictionary_size() const { return dictionary_.size(); }
  std::size_t dictionary_live() const { return dictionary_.live(); }

 private:
  struct Bucket {
    std::uint64_t id = 0;  ///< monotone creation index (deque-contiguous)
    std::int64_t tick = 0;
    util::Day day = 0;
    bool day_closed = false;
    std::size_t event_count = 0;  ///< raw + sealed
    std::vector<logs::ConnEvent> events;  ///< raw tail; cleared on seal
    std::vector<graph::SealedSegment> segments;  ///< sealed, arrival order

    bool sealed() const { return !segments.empty(); }
  };

  void seal(Bucket& bucket);
  std::size_t assemble(graph::DayGraph& out, const graph::DomainFilter* filter);

  WindowConfig config_;
  graph::WindowDictionary dictionary_;
  std::deque<Bucket> buckets_;
  std::uint64_t next_bucket_id_ = 0;
  std::size_t buffered_events_ = 0;  ///< raw events held (see buffered_events)
  std::size_t cached_events_ = 0;    ///< events inside sealed segments
  std::optional<std::uint64_t> front_;  ///< first bucket of the last window
  bool invalidated_ = false;  ///< late append since the last window
  std::vector<const graph::SealedSegment*> reading_;  ///< assembly input
  Stats stats_{};
};

}  // namespace eid::rt
