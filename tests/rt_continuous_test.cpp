// Batch/continuous equivalence: a day streamed through rt::ContinuousEngine
// must close with a DayReport bit-identical to api::Detector::run_day on
// the same event sequence — for every tick size, window length, thread
// count and pipeline depth — while additionally emitting provisional
// incidents at sub-day latency. This is the acceptance criterion of the
// real-time subsystem: continuous mode costs latency bounded by one tick,
// never fidelity.
#include "rt/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/report_json.h"
#include "test_helpers.h"

namespace eid::rt {
namespace {

using test::DayBuilder;
using test::MapWhois;

constexpr util::Day kDay = 16100;

std::vector<logs::ConnEvent> browsing_day(util::Day day) {
  DayBuilder builder;
  const util::TimePoint base = util::day_start(day);
  for (int h = 0; h < 12; ++h) {
    for (int d = 0; d < 6; ++d) {
      builder.visit("h" + std::to_string(h), "pop" + std::to_string(d) + ".com",
                    base + 1000 + h * 50 + d, {0}, "CommonUA", true);
    }
  }
  return builder.events();
}

/// Operation day: browsing plus a fresh campaign (beaconing C&C + delivery
/// domain + IOC-seeded pair) so C&C detection and both BP modes fire.
std::vector<logs::ConnEvent> campaign_day(util::Day day, MapWhois& whois) {
  const util::TimePoint base = util::day_start(day);
  auto events = browsing_day(day);
  DayBuilder extra;
  whois.add("evil-cc.ru", day - 3, day + 40);
  whois.add("evil-drop.ru", day - 4, day + 40);
  extra.visit("h5", "evil-drop.ru", base + 1990,
              util::Ipv4::from_octets(198, 51, 100, 7), "", false);
  extra.beacon("h5", "evil-cc.ru", base + 2040, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 9), "");
  whois.add("ioc-domain.ru", day - 10, day + 30);
  whois.add("related.ru", day - 9, day + 30);
  extra.visit("h6", "ioc-domain.ru", base + 3000,
              util::Ipv4::from_octets(198, 51, 100, 20), "", false);
  extra.visit("h6", "related.ru", base + 3030,
              util::Ipv4::from_octets(198, 51, 100, 21), "", false);
  for (const auto& ev : extra.events()) events.push_back(ev);
  return events;
}

struct TrainingDay {
  util::Day day = 0;
  std::vector<logs::ConnEvent> events;
};

std::vector<TrainingDay> training_days(MapWhois& whois,
                                       std::set<std::string>& reported) {
  std::vector<TrainingDay> days;
  for (int i = 0; i < 10; ++i) {
    const util::Day day = kDay - 2;
    const util::TimePoint base = util::day_start(day);
    auto events = browsing_day(day);
    DayBuilder extra;
    const std::string bad = "bad" + std::to_string(i) + ".ru";
    const std::string good = "updates" + std::to_string(i) + ".com";
    whois.add(bad, day - 5, day + 60);
    whois.add(good, day - 900, day + 900);
    reported.insert(bad);
    extra.beacon("h1", bad, base + 2000, 600, 40,
                 util::Ipv4::from_octets(203, 0, 113, 5), "");
    extra.beacon("h2", good, base + 2500, 900, 30,
                 util::Ipv4::from_octets(8, 8, 4, 4), "CommonUA");
    const std::string drop = "drop" + std::to_string(i) + ".ru";
    whois.add(drop, day - 6, day + 60);
    reported.insert(drop);
    extra.visit("h1", drop, base + 1985,
                util::Ipv4::from_octets(203, 0, 113, 9), "", false);
    const std::string blog = "blog" + std::to_string(i) + ".com";
    whois.add(blog, day - 800, day + 900);
    extra.visit("h1", blog, base + 30000,
                util::Ipv4::from_octets(9, 9, 9, 9), "CommonUA", true);
    for (const auto& ev : extra.events()) events.push_back(ev);
    days.push_back(TrainingDay{day, std::move(events)});
  }
  return days;
}

core::PipelineConfig test_config(std::size_t threads = 1,
                                 std::size_t depth = 1) {
  core::PipelineConfig config;
  config.ua_rare_threshold = 3;
  config.parallelism.threads = threads;
  config.parallelism.pipeline_depth = depth;
  return config;
}

/// A detector profiled and trained on the shared fixture world.
api::Detector trained_detector(MapWhois& whois, const core::LabelFn& intel,
                               const std::vector<TrainingDay>& train,
                               std::size_t threads, std::size_t depth = 1) {
  api::Detector detector(test_config(threads, depth), whois);
  for (const util::Day day : {kDay - 4, kDay - 3}) {
    api::VectorSource source(day, browsing_day(day));
    detector.ingest(source);
  }
  for (const auto& day : train) {
    api::VectorSource source(day.day, &day.events);
    detector.ingest(source, intel);
  }
  detector.finalize_training();
  return detector;
}

core::SocSeeds soc_seeds() {
  core::SocSeeds seeds;
  seeds.domains = {"ioc-domain.ru"};
  return seeds;
}

// Continuous day close must be bit-identical to run_day for every tick
// size, across the parallel knobs, with provisional emissions riding along
// at sub-day tick sizes.
TEST(RtContinuousTest, DayCloseBitIdenticalToRunDayAcrossTicksThreadsDepth) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  // Batch baseline (one thread — itself config-invariant per
  // api_equivalence_test).
  std::string baseline;
  {
    api::Detector batch = trained_detector(whois, intel, train, 1);
    api::VectorSource source(kDay, &events);
    baseline =
        core::day_report_to_json(batch.run_day(source, kDay, soc_seeds()));
    ASSERT_NE(baseline.find("evil-cc.ru"), std::string::npos);
  }

  for (const std::int64_t tick : {std::int64_t{300}, std::int64_t{3600},
                                  std::int64_t{86400}}) {
    for (const std::size_t threads : {1u, 8u}) {
      // Depth 2 drives the pipelined close: finish_day/report_day run on
      // a worker and the history commit lands at the next join point —
      // the report must still match the batch baseline byte for byte.
      for (const std::size_t depth : {1u, 2u}) {
        SCOPED_TRACE("tick " + std::to_string(tick) + ", threads " +
                     std::to_string(threads) + ", depth " +
                     std::to_string(depth));
        api::Detector detector =
            trained_detector(whois, intel, train, threads, depth);
        EngineConfig config;
        config.window.tick_seconds = tick;
        config.seeds = soc_seeds();
        api::VectorSource source(kDay, &events);
        const ContinuousReport report = detector.run_continuous(source, config);

        ASSERT_EQ(report.days.size(), 1u);
        EXPECT_EQ(core::day_report_to_json(report.days[0]), baseline);
        EXPECT_EQ(report.stats.events, events.size());
        EXPECT_EQ(report.stats.days_closed, 1u);
        EXPECT_EQ(detector.days_operated(), 1u);

        // Finalized emissions always fire (fresh campaign); provisional
        // ones require at least one tick boundary inside the day.
        EXPECT_GT(report.emissions.size(), 0u);
        if (tick < 86400) {
          EXPECT_GT(report.stats.provisional_emissions, 0u);
        }
        for (const IncidentEmission& emission : report.emissions) {
          EXPECT_GE(emission.latency_seconds, 0);
          EXPECT_EQ(emission.emission_time - emission.event_time,
                    emission.latency_seconds);
        }
      }
    }
  }
}

// Sub-day ticks must announce the beaconing C&C domain before the day
// closes, with event->emission latency bounded by detection lag + one
// tick — the latency the batch path pays a full day for.
TEST(RtContinuousTest, ProvisionalEmissionPrecedesDayClose) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  api::Detector detector = trained_detector(whois, intel, train, 1);
  EngineConfig config;
  config.window.tick_seconds = 300;
  config.seeds = soc_seeds();
  api::VectorSource source(kDay, &events);
  const ContinuousReport report = detector.run_continuous(source, config);

  bool cc_provisional = false;
  for (const IncidentEmission& emission : report.emissions) {
    if (!emission.provisional) continue;
    for (const std::string& domain : emission.domains) {
      if (domain == "evil-cc.ru") {
        cc_provisional = true;
        // Announced at a tick close strictly inside the day...
        EXPECT_LT(emission.emission_time, util::day_start(kDay + 1));
        // ...after the evidence began...
        EXPECT_GE(emission.emission_time, emission.event_time);
        // ...and never re-announced at day close.
        EXPECT_EQ(emission.day, kDay);
      }
    }
  }
  EXPECT_TRUE(cc_provisional);

  const LatencySummary latency =
      summarize_latency(report.emissions, /*provisional_only=*/true);
  ASSERT_GT(latency.count, 0u);
  EXPECT_GT(latency.p50_seconds, 0.0);
  EXPECT_LE(latency.p50_seconds, latency.p99_seconds);
  EXPECT_LE(latency.p99_seconds, latency.max_seconds);
  // Provisional latency is bounded by one day (the batch path's floor).
  EXPECT_LT(latency.max_seconds, 86400.0);
}

// Multiple consecutive days through one engine: every day close matches
// the twin batch detector, histories carry across days identically, and
// the incident store tracks the campaign across both days.
TEST(RtContinuousTest, MultiDayMatchesSequentialRunDay) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto day1 = campaign_day(kDay, whois);
  auto day2 = campaign_day(kDay + 1, whois);

  api::Detector batch = trained_detector(whois, intel, train, 1);
  std::vector<std::string> batch_json;
  for (auto* events : {&day1, &day2}) {
    const util::Day day = events == &day1 ? kDay : kDay + 1;
    api::VectorSource source(day, events);
    batch_json.push_back(
        core::day_report_to_json(batch.run_day(source, day, soc_seeds())));
  }

  api::Detector continuous = trained_detector(whois, intel, train, 1);
  ReplayClock clock;
  EngineConfig config;
  config.window.tick_seconds = 3600;
  config.seeds = soc_seeds();
  ContinuousEngine engine(continuous, clock, config);
  {
    api::VectorSource source(kDay, &day1);
    engine.poll(source);
  }
  {
    // First chunk of the next day closes day one — no finish() needed
    // between days, exactly like a live tail.
    api::VectorSource source(kDay + 1, &day2);
    engine.poll(source);
  }
  engine.finish();

  ASSERT_EQ(engine.day_reports().size(), 2u);
  EXPECT_EQ(core::day_report_to_json(engine.day_reports()[0]), batch_json[0]);
  EXPECT_EQ(core::day_report_to_json(engine.day_reports()[1]), batch_json[1]);
  EXPECT_EQ(continuous.days_operated(), 2u);
  EXPECT_EQ(engine.stats().days_closed, 2u);

  // The campaign recurs on day two, so the store merged it into one
  // incident active both days, with evidence event times recorded.
  const auto incidents = engine.incidents().incidents();
  bool campaign_found = false;
  for (const core::Incident& incident : incidents) {
    if (!incident.domains.contains("evil-cc.ru")) continue;
    campaign_found = true;
    EXPECT_EQ(incident.first_seen, kDay);
    EXPECT_EQ(incident.last_seen, kDay + 1);
    EXPECT_GT(incident.first_evidence, 0);
    EXPECT_GE(incident.last_evidence, incident.first_evidence);
  }
  EXPECT_TRUE(campaign_found);

  // finish() is idempotent; a second take_report starts empty.
  engine.finish();
  EXPECT_EQ(engine.day_reports().size(), 2u);
}

// A quiet day (no events, day announced by an empty chunk) must close
// exactly like run_day over an empty source.
TEST(RtContinuousTest, EmptyDayClosesLikeBatch) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };

  api::Detector batch = trained_detector(whois, intel, train, 1);
  api::VectorSource empty_batch(kDay, std::vector<logs::ConnEvent>{});
  const std::string baseline =
      core::day_report_to_json(batch.run_day(empty_batch, kDay, {}));

  api::Detector continuous = trained_detector(whois, intel, train, 1);
  EngineConfig config;
  config.window.tick_seconds = 300;
  api::VectorSource empty_stream(kDay, std::vector<logs::ConnEvent>{});
  const ContinuousReport report =
      continuous.run_continuous(empty_stream, config);

  ASSERT_EQ(report.days.size(), 1u);
  EXPECT_EQ(core::day_report_to_json(report.days[0]), baseline);
  EXPECT_EQ(report.stats.events, 0u);
  EXPECT_TRUE(report.emissions.empty());
}

// Observability is a pure side channel for the continuous engine too:
// running with metrics enabled and a trace sink installed must close the
// day with a report byte-identical to the fully dark run, while the sink
// collects well-formed Chrome trace-event JSON with rt spans in it.
TEST(RtContinuousTest, TracingOnKeepsDayCloseBitIdentical) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  auto events = campaign_day(kDay, whois);

  const auto run = [&](std::size_t threads) {
    api::Detector detector = trained_detector(whois, intel, train, threads);
    EngineConfig config;
    config.window.tick_seconds = 3600;
    config.seeds = soc_seeds();
    api::VectorSource source(kDay, &events);
    const ContinuousReport report = detector.run_continuous(source, config);
    std::string json;
    for (const core::DayReport& day : report.days) {
      json += core::day_report_to_json(day);
    }
    return json;
  };

  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    obs::metrics().set_enabled(false);
    const std::string dark = run(threads);

    obs::TraceSink sink;
    api::Detector::set_trace_sink(&sink);
    obs::metrics().set_enabled(true);
    const std::string traced = run(threads);
    api::Detector::set_trace_sink(nullptr);

    EXPECT_EQ(traced, dark);
    EXPECT_GT(sink.event_count(), 0u) << "rt stages must record spans";
    const std::string trace_json = sink.to_chrome_json();
    EXPECT_TRUE(test::json_well_formed(trace_json));
    EXPECT_NE(trace_json.find("rt_tick_evaluate"), std::string::npos);
  }
  obs::metrics().set_enabled(true);
}

}  // namespace
}  // namespace eid::rt
