// Unit coverage for the real-time building blocks: the SimClock drivers
// (monotonicity contracts), the tick/window geometry of WindowConfig, and
// the WindowAccumulator's bucket lifecycle (arrival-order merge, day
// close, window expiry, memory bound). The end-to-end batch/continuous
// equivalence lives in rt_continuous_test.cpp.
#include "rt/clock.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "rt/window.h"

namespace eid::rt {
namespace {

logs::ConnEvent event_at(util::TimePoint ts,
                         std::string domain = "example.com") {
  logs::ConnEvent event;
  event.ts = ts;
  event.host = "h1";
  event.domain = std::move(domain);
  return event;
}

graph::DayGraph empty_partial() { return graph::DayGraph(); }

TEST(RtClockTest, ManualClockClampsBackwardsSets) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.set(500);
  EXPECT_EQ(clock.now(), 500);
  clock.set(200);  // backwards: clamped
  EXPECT_EQ(clock.now(), 500);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 550);
  clock.observe(10'000);  // manual driver ignores event time
  EXPECT_EQ(clock.now(), 550);
}

TEST(RtClockTest, ReplayClockIsHighWaterMarkOfObservations) {
  ReplayClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.observe(1000);
  clock.observe(400);  // out-of-order event: time does not regress
  clock.observe(1200);
  EXPECT_EQ(clock.now(), 1200);
}

TEST(RtClockTest, RealTimeClockAdvancesFromAnchor) {
  RealTimeClock clock(50'000);
  const util::TimePoint first = clock.now();
  EXPECT_GE(first, 50'000);
  clock.observe(1);  // live driver ignores event time
  EXPECT_GE(clock.now(), first);
}

TEST(RtWindowTest, ConfigValidityRequiresDayTiling) {
  WindowConfig config;  // defaults: 5 min ticks, 24 h window
  EXPECT_TRUE(config.valid());
  EXPECT_EQ(config.window_ticks(), 288);

  config.tick_seconds = 7;  // does not tile 86400
  EXPECT_FALSE(config.valid());
  config.tick_seconds = 3600;
  config.window_seconds = 5400;  // not a whole number of ticks
  EXPECT_FALSE(config.valid());
  config.window_seconds = 3600;  // window == one tick: minimal valid
  EXPECT_TRUE(config.valid());
  config.window_seconds = 0;
  EXPECT_FALSE(config.valid());
  config = WindowConfig{86400, 86400};  // one tick per day == batch mode
  EXPECT_TRUE(config.valid());
}

TEST(RtWindowTest, TickGeometryFloorsNegativeTime) {
  WindowConfig config;
  config.tick_seconds = 300;
  EXPECT_EQ(config.tick_of(0), 0);
  EXPECT_EQ(config.tick_of(299), 0);
  EXPECT_EQ(config.tick_of(300), 1);
  EXPECT_EQ(config.tick_of(-1), -1);
  EXPECT_EQ(config.tick_of(-300), -1);
  EXPECT_EQ(config.tick_of(-301), -2);
  EXPECT_EQ(config.tick_end(0), 300);
  EXPECT_EQ(config.tick_end(-1), 0);
}

TEST(RtWindowTest, BucketsMergeInArrivalOrder) {
  WindowConfig config{300, 900};  // 3-tick window
  WindowAccumulator window(config);
  window.set_partial_factory(empty_partial);
  window.append(event_at(10, "b.com"), 0, 100);
  // Out-of-order arrival, same bucket.
  window.append(event_at(5, "a.com"), 0, 100);
  window.append(event_at(310, "c.com"), 1, 100);
  ASSERT_EQ(window.bucket_count(), 2u);
  EXPECT_EQ(window.buffered_events(), 3u);
  EXPECT_EQ(window.window_events(1), 3u);

  // The merged day interns domains in arrival order, not timestamp order.
  std::size_t events = 0;
  graph::DayGraph day = window.merge_day(100, events);
  EXPECT_EQ(events, 3u);
  EXPECT_EQ(window.buffered_events(), 0u);  // sealed: raw events released
  EXPECT_EQ(window.cached_events(), 3u);
  day.finalize();
  ASSERT_EQ(day.domain_count(), 3u);
  EXPECT_EQ(day.domain_name(0), "b.com");
  EXPECT_EQ(day.domain_name(1), "a.com");
  EXPECT_EQ(day.domain_name(2), "c.com");
}

TEST(RtWindowTest, WindowSlidesButNeverTruncatesAnOpenDay) {
  WindowConfig config{300, 600};  // 2-tick window
  WindowAccumulator window(config);
  window.append(event_at(10), 0, 100);
  window.append(event_at(310), 1, 100);
  window.append(event_at(910), 3, 100);

  // Tick 3's window is {2, 3}: tick 0/1 buckets are outside it...
  EXPECT_EQ(window.window_events(3), 1u);
  // ...but day 100 is still open, so expiry must not drop them.
  EXPECT_EQ(window.expire(3), 0u);
  EXPECT_EQ(window.buffered_events(), 3u);

  // Day close makes the slid-out buckets reclaimable; the in-window
  // bucket stays.
  window.close_day(100);
  EXPECT_EQ(window.expire(3), 2u);
  EXPECT_EQ(window.buffered_events(), 1u);
  EXPECT_EQ(window.bucket_count(), 1u);

  // The closed-day bucket still replays for the window until it slides out.
  EXPECT_EQ(window.window_events(3), 1u);
  EXPECT_EQ(window.expire(5), 1u);
  EXPECT_EQ(window.buffered_events(), 0u);
}

TEST(RtWindowTest, DayBoundaryInsideOneTickSplitsBuckets) {
  // Chunks tagged with a new day must never share a bucket with the old
  // day, even at the same tick — day merge is keyed by bucket day tags.
  WindowConfig config{86400, 86400};
  WindowAccumulator window(config);
  window.set_partial_factory(empty_partial);
  window.append(event_at(86'390), 0, 100);
  window.append(event_at(86'401), 1, 101);
  window.append(event_at(86'410), 1, 101);
  ASSERT_EQ(window.bucket_count(), 2u);

  std::size_t day0 = 0;
  std::size_t day1 = 0;
  window.merge_day(100, day0);
  window.merge_day(101, day1);
  EXPECT_EQ(day0, 1u);
  EXPECT_EQ(day1, 2u);
}

}  // namespace
}  // namespace eid::rt
