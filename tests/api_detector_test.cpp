// Detector facade behavior: day-boundary detection in ingest(), empty
// streams, end-of-day history side effects, and the deferred history
// update for threshold-sweeping callers.
#include "api/detector.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/event_source.h"
#include "test_helpers.h"

namespace eid::api {
namespace {

using test::DayBuilder;
using test::MapWhois;

constexpr util::Day kDay = 16200;

std::vector<logs::ConnEvent> small_day(util::Day day, int salt) {
  DayBuilder builder;
  const util::TimePoint base = util::day_start(day);
  for (int h = 0; h < 4; ++h) {
    builder.visit("h" + std::to_string(h),
                  "site" + std::to_string(salt) + "-" + std::to_string(h) + ".com",
                  base + 100 + h, {0}, "CommonUA", true);
  }
  return builder.events();
}

/// Test source: a fixed sequence of day-tagged chunks (exercises the
/// day-boundary logic in Detector::ingest without a file or simulator).
class ScriptedSource final : public EventSource {
 public:
  explicit ScriptedSource(std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> days)
      : days_(std::move(days)) {}

  std::optional<EventChunk> next_chunk() override {
    if (pos_ >= days_.size()) return std::nullopt;
    const auto& [day, events] = days_[pos_];
    ++pos_;
    return EventChunk{day, events};
  }

  bool reset() override {
    pos_ = 0;
    return true;
  }

 private:
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> days_;
  std::size_t pos_ = 0;
};

TEST(DetectorTest, IngestSplitsDaysAtChunkBoundaries) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  // Three days, the middle one split over two chunks.
  auto day2 = small_day(kDay + 1, 1);
  const std::size_t half = day2.size() / 2;
  ScriptedSource source({
      {kDay, small_day(kDay, 0)},
      {kDay + 1, {day2.begin(), day2.begin() + half}},
      {kDay + 1, {day2.begin() + half, day2.end()}},
      {kDay + 2, small_day(kDay + 2, 2)},
  });
  const IngestReport report = detector.ingest(source);
  EXPECT_EQ(report.days, 3u);
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_EQ(report.events, small_day(kDay, 0).size() + day2.size() +
                               small_day(kDay + 2, 2).size());
  EXPECT_EQ(detector.pipeline().domain_history().days_ingested(), 3u);
  EXPECT_GT(detector.pipeline().domain_history().size(), 0u);
}

TEST(DetectorTest, IngestOfEmptySourceDoesNothing) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  ScriptedSource source({});
  const IngestReport report = detector.ingest(source);
  EXPECT_EQ(report.days, 0u);
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(detector.pipeline().domain_history().days_ingested(), 0u);
}

// A day with zero events is still a day: it bumps days_ingested. Sources
// announce such days with one empty chunk and ingest() must commit them.
TEST(DetectorTest, IngestCountsEmptyDays) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  ScriptedSource source({
      {kDay, small_day(kDay, 0)},
      {kDay + 1, {}},  // empty-day boundary marker
      {kDay + 2, small_day(kDay + 2, 2)},
  });
  const IngestReport report = detector.ingest(source);
  EXPECT_EQ(report.days, 3u);
  EXPECT_EQ(detector.pipeline().domain_history().days_ingested(), 3u);

  // Parity with one ingest() per day over the same sequence.
  Detector per_day(core::PipelineConfig{}, whois);
  test::profile_events(per_day, small_day(kDay, 0), kDay);
  test::profile_events(per_day, {}, kDay + 1);
  test::profile_events(per_day, small_day(kDay + 2, 2), kDay + 2);
  EXPECT_EQ(per_day.pipeline().domain_history().days_ingested(),
            detector.pipeline().domain_history().days_ingested());
  EXPECT_EQ(per_day.pipeline().domain_history().size(),
            detector.pipeline().domain_history().size());
}

TEST(DetectorTest, AnalyzeStreamLeavesHistoriesUntouched) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  auto events = small_day(kDay, 0);
  VectorSource source(kDay, &events, 2);
  const core::DayAnalysis analysis = detector.analyze_stream(source, kDay);
  EXPECT_EQ(analysis.day, kDay);
  EXPECT_EQ(analysis.event_count, events.size());
  EXPECT_EQ(detector.pipeline().domain_history().size(), 0u);

  // The sweep is over; commit the day explicitly.
  detector.update_histories(analysis);
  EXPECT_GT(detector.pipeline().domain_history().size(), 0u);
  VectorSource again(kDay + 1, &events, 2);
  EXPECT_EQ(detector.analyze_stream(again, kDay + 1).new_domains, 0u);
}

TEST(DetectorTest, RunDayCommitsTheDayToTheHistories) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  auto events = small_day(kDay, 0);
  VectorSource source(kDay, &events, 3);
  const core::DayReport report = detector.run_day(source, kDay);
  EXPECT_EQ(report.day, kDay);
  EXPECT_EQ(report.events, events.size());
  EXPECT_GT(report.domains, 0u);
  // Tomorrow, today's domains are old news.
  VectorSource again(kDay + 1, &events, 3);
  EXPECT_EQ(detector.analyze_stream(again, kDay + 1).new_domains, 0u);
}

TEST(DetectorTest, LabeledIngestAccumulatesTrainingRows) {
  MapWhois whois;
  Detector detector(core::PipelineConfig{}, whois);
  // Bootstrap so CommonUA is popular and browsing domains are old.
  {
    ScriptedSource bootstrap({{kDay - 2, small_day(kDay - 2, 0)}});
    detector.ingest(bootstrap);
  }
  // One labeled day with a beaconing reported domain.
  auto events = small_day(kDay, 0);
  DayBuilder extra;
  whois.add("bad.ru", kDay - 5, kDay + 60);
  extra.beacon("h1", "bad.ru", util::day_start(kDay) + 2000, 600, 40,
               util::Ipv4::from_octets(203, 0, 113, 5), "");
  for (const auto& ev : extra.events()) events.push_back(ev);

  ScriptedSource labeled({{kDay, std::move(events)}});
  const core::LabelFn intel = [](const std::string& domain) {
    return domain == "bad.ru";
  };
  const IngestReport report = detector.ingest(labeled, intel);
  EXPECT_EQ(report.days, 1u);
  const core::TrainingReport training = detector.finalize_training();
  EXPECT_GE(training.cc_rows, 1u);
  EXPECT_GE(training.cc_positive, 1u);
}

}  // namespace
}  // namespace eid::api
