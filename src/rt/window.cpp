#include "rt/window.h"

#include <cassert>
#include <utility>

namespace eid::rt {

void WindowAccumulator::append(const logs::ConnEvent& event, std::int64_t tick,
                               util::Day day) {
  assert(buckets_.empty() || tick >= buckets_.back().tick);
  if (buckets_.empty() || buckets_.back().tick != tick ||
      buckets_.back().day != day || buckets_.back().day_closed) {
    Bucket bucket;
    bucket.id = next_bucket_id_++;
    bucket.tick = tick;
    bucket.day = day;
    buckets_.push_back(std::move(bucket));
  } else if (buckets_.back().sealed()) {
    // Out-of-order arrival behind an already-evaluated tick (only possible
    // when the accumulator is driven directly — the engine's clocks are
    // monotone). The event joins the bucket's raw tail, which the next
    // read seals as another segment: its end-of-bucket arrival position.
    invalidated_ = true;
    ++stats_.invalidations;
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
  if (bucket.events.empty()) return;
  bucket.segments.push_back(dictionary_.seal(bucket.events));
  buffered_events_ -= bucket.events.size();
  cached_events_ += bucket.events.size();
  bucket.events = {};  // release raw storage, not just size
  ++stats_.segments_sealed;
}

std::size_t WindowAccumulator::expire(std::int64_t tick) {
  const std::int64_t first_live = tick - config_.window_ticks() + 1;
  std::size_t dropped = 0;
  // Buckets are tick-ordered, but an expired-by-tick bucket whose day is
  // still open must survive, so scan past it rather than stopping.
  while (!buckets_.empty()) {
    Bucket& front = buckets_.front();
    if (front.tick >= first_live) break;
    if (!front.day_closed) {
      // An open day pins its buckets; nothing older than it can be ahead
      // of it in the deque with a closed day (days arrive contiguously),
      // so stop here.
      break;
    }
    dropped += front.event_count;
    buffered_events_ -= front.events.size();
    cached_events_ -= front.event_count - front.events.size();
    for (const graph::SealedSegment& segment : front.segments) {
      dictionary_.release(segment);
    }
    buckets_.pop_front();
  }
  if (dictionary_.size() > 2 * dictionary_.live()) {
    std::vector<graph::SealedSegment*> live;
    for (Bucket& bucket : buckets_) {
      for (graph::SealedSegment& segment : bucket.segments) {
        live.push_back(&segment);
      }
    }
    dictionary_.compact(live);
  }
  return dropped;
}

std::size_t WindowAccumulator::assemble(graph::DayGraph& out,
                                        const graph::DomainFilter* filter) {
  stats_.segments_read += reading_.size();
  std::size_t events = 0;
  for (const graph::SealedSegment* segment : reading_) {
    events += segment->events();
  }
  dictionary_.assemble(reading_, out, filter);
  return events;
}

std::size_t WindowAccumulator::assemble_window(
    std::int64_t tick, graph::DayGraph& out,
    const graph::DomainFilter* filter) {
  const std::int64_t first_live = tick - config_.window_ticks() + 1;
  reading_.clear();
  std::optional<std::uint64_t> front;
  for (Bucket& bucket : buckets_) {
    if (bucket.tick < first_live) continue;
    if (bucket.tick > tick) break;
    seal(bucket);
    if (!front) front = bucket.id;
    for (const graph::SealedSegment& segment : bucket.segments) {
      reading_.push_back(&segment);
    }
  }
  if (!front) {
    front_.reset();
    return 0;
  }
  if (front == front_ && !invalidated_) {
    ++stats_.front_kept;
  } else {
    ++stats_.front_moved;
  }
  front_ = front;
  invalidated_ = false;
  return assemble(out, filter);
}

std::size_t WindowAccumulator::assemble_day(util::Day day,
                                            graph::DayGraph& out) {
  reading_.clear();
  for (Bucket& bucket : buckets_) {
    if (bucket.day != day) continue;
    seal(bucket);
    for (const graph::SealedSegment& segment : bucket.segments) {
      reading_.push_back(&segment);
    }
  }
  return assemble(out, nullptr);
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
