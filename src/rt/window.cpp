#include "rt/window.h"

#include <cassert>
#include <utility>

namespace eid::rt {

void WindowAccumulator::append(const logs::ConnEvent& event, std::int64_t tick,
                               util::Day day) {
  assert(buckets_.empty() || tick >= buckets_.back().tick);
  if (!buckets_.empty() && buckets_.back().tick == tick &&
      buckets_.back().day == day && !buckets_.back().day_closed &&
      buckets_.back().sealed()) {
    // Out-of-order arrival behind an already-evaluated tick (only possible
    // when the accumulator is driven directly — the engine's clocks are
    // monotone). The partial's sequence counter sits exactly at this
    // bucket's event count, so ingesting here is the event's end-of-bucket
    // arrival position; the running merge may hold a stale copy of this
    // partial, so bump the epoch to force a rebuild from the cache.
    Bucket& bucket = buckets_.back();
    bucket.partial->add_event(event);
    ++bucket.event_count;
    ++cached_events_;
    ++mutation_epoch_;
    ++cache_stats_.invalidations;
    return;
  }
  if (buckets_.empty() || buckets_.back().tick != tick ||
      buckets_.back().day != day || buckets_.back().day_closed) {
    Bucket bucket;
    bucket.id = next_bucket_id_++;
    bucket.tick = tick;
    bucket.day = day;
    buckets_.push_back(std::move(bucket));
  }
  buckets_.back().events.push_back(event);
  ++buckets_.back().event_count;
  ++buffered_events_;
}

void WindowAccumulator::close_day(util::Day day) {
  for (Bucket& bucket : buckets_) {
    if (bucket.day == day) bucket.day_closed = true;
  }
}

void WindowAccumulator::seal(Bucket& bucket) {
  if (bucket.sealed()) return;
  assert(factory_ && "seal requires a partial factory");
  bucket.partial = std::make_unique<graph::DayGraph>(factory_());
  bucket.partial->add_events(bucket.events);
  // Pre-sorting lets every later absorb keep the times sorted with an
  // in-place merge and lets finalize skip its per-edge sort entirely.
  bucket.partial->sort_edge_times();
  buffered_events_ -= bucket.events.size();
  cached_events_ += bucket.events.size();
  bucket.events = {};  // release raw storage, not just size
  ++cache_stats_.buckets_sealed;
}

void WindowAccumulator::reset_merge() {
  merge_.reset();
  merge_events_ = 0;
  snapshot_cache_.reset();
}

std::size_t WindowAccumulator::expire(std::int64_t tick) {
  const std::int64_t first_live = tick - config_.window_ticks() + 1;
  std::size_t dropped = 0;
  // Buckets are tick-ordered, but an expired-by-tick bucket whose day is
  // still open must survive, so scan past it rather than stopping.
  while (!buckets_.empty()) {
    const Bucket& front = buckets_.front();
    if (front.tick >= first_live) break;
    if (!front.day_closed) {
      // An open day pins its buckets; nothing older than it can be ahead
      // of it in the deque with a closed day (days arrive contiguously),
      // so stop here.
      break;
    }
    dropped += front.event_count;
    if (front.sealed()) {
      cached_events_ -= front.event_count;
    } else {
      buffered_events_ -= front.events.size();
    }
    buckets_.pop_front();
  }
  return dropped;
}

WindowAccumulator::MergeView WindowAccumulator::merge_window(
    std::int64_t tick) {
  const std::int64_t first_live = tick - config_.window_ticks() + 1;
  // Locate the in-window bucket range and seal it. Bucket ids are assigned
  // at creation and buckets are never reordered, so the deque holds a
  // contiguous ascending id range — index arithmetic below is exact.
  std::size_t lo = 0;
  while (lo < buckets_.size() && buckets_[lo].tick < first_live) ++lo;
  std::size_t hi = lo;
  while (hi < buckets_.size() && buckets_[hi].tick <= tick) {
    seal(buckets_[hi]);
    ++hi;
  }
  if (lo == hi) {
    reset_merge();
    return MergeView{};
  }
  const std::uint64_t first_id = buckets_[lo].id;
  const std::uint64_t end_id = buckets_[hi - 1].id + 1;
  const bool extendable = merge_ != nullptr && merge_first_id_ == first_id &&
                          merge_epoch_ == mutation_epoch_ &&
                          merge_next_id_ >= first_id && merge_next_id_ <= end_id;
  if (!extendable) {
    // Window front moved (expiry / slide) or a sealed bucket mutated:
    // rebuild from the cached partials — still never from raw events. The
    // snapshot cache indexes the old merge object's slots, so it resets
    // with it.
    merge_ = std::make_unique<graph::DayGraph>(factory_());
    merge_events_ = 0;
    snapshot_cache_.reset();
    merge_first_id_ = first_id;
    merge_next_id_ = first_id;
    merge_epoch_ = mutation_epoch_;
    ++cache_stats_.merge_rebuilds;
  } else if (merge_next_id_ < end_id) {
    ++cache_stats_.merge_extends;
  }
  for (std::size_t i = lo + static_cast<std::size_t>(merge_next_id_ - first_id);
       i < hi; ++i) {
    merge_->absorb(*buckets_[i].partial);
    merge_events_ += buckets_[i].event_count;
    ++cache_stats_.partial_absorbs;
  }
  merge_next_id_ = end_id;
  return MergeView{merge_.get(), merge_events_, &snapshot_cache_};
}

graph::DayGraph WindowAccumulator::merge_day(util::Day day,
                                             std::size_t& events_out) {
  graph::DayGraph merged = factory_();
  events_out = 0;
  for (Bucket& bucket : buckets_) {
    if (bucket.day != day) continue;
    seal(bucket);
    merged.absorb(*bucket.partial);
    events_out += bucket.event_count;
    ++cache_stats_.partial_absorbs;
  }
  return merged;
}

std::size_t WindowAccumulator::window_events(std::int64_t tick) const {
  const std::int64_t first_live = tick - config_.window_ticks() + 1;
  std::size_t count = 0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.tick < first_live || bucket.tick > tick) continue;
    count += bucket.event_count;
  }
  return count;
}

}  // namespace eid::rt
