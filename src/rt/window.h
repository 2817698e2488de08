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
// A bucket is sealed the first time an evaluation covers it: its events
// are ingested once into a cached pre-finalize graph::DayGraph partial
// (interners + edge table, timestamps pre-sorted) and the raw events are
// released — so window memory is bounded by the open bucket plus
// O(distinct) partial state, and a tick evaluation merges cached partials
// (DayGraph::absorb) instead of re-interning the window's raw events. A
// running window merge is kept across ticks: when the window front is
// unchanged, only the newly sealed buckets are absorbed — tick cost
// O(new events), not O(window). The merge is rebuilt from the cached
// partials (never from raw events) when the front moves or a sealed bucket
// is mutated by a late append (mutation epoch).
//
// A bucket is dropped only when it has slid out of the window AND its day
// has been closed; the window never truncates an open day. Memory is
// therefore bounded by (window ∪ open day) — the continuous engine's
// backpressure story is pull-based ingestion plus this bound, not an
// unbounded queue.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "graph/day_graph.h"
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

  /// Tick index containing sim time t (floor division, correct for t < 0).
  std::int64_t tick_of(util::TimePoint t) const {
    return t >= 0 ? t / tick_seconds
                  : (t - (tick_seconds - 1)) / tick_seconds;
  }

  /// Sim time at which tick `index` closes (exclusive end).
  util::TimePoint tick_end(std::int64_t index) const {
    return (index + 1) * tick_seconds;
  }
};

/// Arrival-ordered micro-batch buckets with window expiry, the sealed-
/// partial cache and the running window merge.
/// Not thread-safe: owned and driven by one engine.
class WindowAccumulator {
 public:
  explicit WindowAccumulator(WindowConfig config) : config_(config) {}

  const WindowConfig& config() const { return config_; }

  /// Factory for empty pre-finalize partial graphs wired to the
  /// pipeline's worker pool (see core::Pipeline::make_ingest_graph). Must
  /// be installed before the first seal.
  using PartialFactory = std::function<graph::DayGraph()>;
  void set_partial_factory(PartialFactory factory) {
    factory_ = std::move(factory);
  }

  /// Append one event observed during `tick` while ingesting a chunk
  /// tagged `day`. Ticks must be non-decreasing (sim time is monotonic).
  /// An append that lands in an already-sealed bucket (out-of-order
  /// arrival behind an evaluated tick) is ingested into that bucket's
  /// partial — at its exact end-of-bucket arrival position — and bumps the
  /// mutation epoch so the running window merge is rebuilt from partials.
  void append(const logs::ConnEvent& event, std::int64_t tick, util::Day day);

  /// Mark every bucket tagged `day` as closed (eligible for expiry once
  /// outside the window).
  void close_day(util::Day day);

  /// Drop buckets that are both outside the window ending at `tick` (i.e.
  /// older than tick - window_ticks + 1) and day-closed. Returns the
  /// number of events dropped (raw or cached).
  std::size_t expire(std::int64_t tick);

  /// Borrowed view of the running window merge (valid until the next
  /// mutating call on this accumulator). `snapshot_cache` is the merge's
  /// paired finalize_snapshot scratch — pass it to finalize_snapshot so
  /// repeated per-tick snapshots of the growing merge stay incremental
  /// too; the accumulator resets it whenever the merge is rebuilt.
  struct MergeView {
    const graph::DayGraph* graph = nullptr;  ///< pre-finalize merged graph
    std::size_t events = 0;                  ///< events it represents
    graph::DayGraph::SnapshotCache* snapshot_cache = nullptr;
  };

  /// Evaluation entry: seal every bucket up to and including
  /// `tick`, then bring the running window merge up to date — extending it
  /// with only the newly sealed buckets when the window front and the
  /// sealed contents are unchanged, rebuilding it from the cached partials
  /// otherwise. The merged graph's finalize output is bit-identical to
  /// ingesting the window's events sequentially (DayGraph::absorb
  /// contract). graph == nullptr when the window is empty.
  MergeView merge_window(std::int64_t tick);

  /// Day close: seal every bucket tagged `day` and merge their
  /// partials, in arrival order, into a fresh graph (the caller owns it —
  /// typically handed to a pipelined finalize task). `events_out` gets the
  /// day's event count.
  graph::DayGraph merge_day(util::Day day, std::size_t& events_out);

  /// Partial-cache bookkeeping, for engine stats / obs counters.
  struct CacheStats {
    std::size_t buckets_sealed = 0;    ///< partials built (events dropped)
    std::size_t partial_absorbs = 0;   ///< bucket -> merge absorb operations
    std::size_t merge_extends = 0;     ///< window merges reusing the cache
    std::size_t merge_rebuilds = 0;    ///< window merges rebuilt from partials
    std::size_t invalidations = 0;     ///< late appends into sealed buckets
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

  /// Events inside the window ending at `tick` (raw or cached).
  std::size_t window_events(std::int64_t tick) const;

  /// Raw events currently buffered. Sealed buckets have released their raw
  /// storage, so this is the open-bucket backlog — the memory the window
  /// actually pins beyond O(distinct) partial state.
  std::size_t buffered_events() const { return buffered_events_; }

  /// Events represented by sealed partials still in the deque.
  std::size_t cached_events() const { return cached_events_; }

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Bucket {
    std::uint64_t id = 0;  ///< monotone creation index (deque-contiguous)
    std::int64_t tick = 0;
    util::Day day = 0;
    bool day_closed = false;
    std::size_t event_count = 0;  ///< raw + cached (survives sealing)
    std::vector<logs::ConnEvent> events;         ///< raw; cleared on seal
    std::unique_ptr<graph::DayGraph> partial;    ///< sealed ingest state

    bool sealed() const { return partial != nullptr; }
  };

  void seal(Bucket& bucket);
  void reset_merge();

  WindowConfig config_;
  PartialFactory factory_;
  std::deque<Bucket> buckets_;
  std::uint64_t next_bucket_id_ = 0;
  std::size_t buffered_events_ = 0;  ///< raw events held (see buffered_events)
  std::size_t cached_events_ = 0;    ///< events inside sealed partials
  std::uint64_t mutation_epoch_ = 0; ///< bumped when a sealed bucket changes

  // Running window merge: absorbed buckets [merge_first_id_, merge_next_id_).
  std::unique_ptr<graph::DayGraph> merge_;
  std::uint64_t merge_first_id_ = 0;
  std::uint64_t merge_next_id_ = 0;
  std::size_t merge_events_ = 0;
  std::uint64_t merge_epoch_ = 0;
  graph::DayGraph::SnapshotCache snapshot_cache_;  ///< merge_'s snapshot scratch
  CacheStats cache_stats_{};
};

}  // namespace eid::rt
