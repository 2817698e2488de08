// Chunk invariance: the chunked EventSource path through api::Detector
// must produce results identical for ANY chunking of the same event
// sequence — chunk sizes 1, 7 and 4096 here, each compared against the
// whole day handed over as one chunk.
#include "api/detector.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "api/event_source.h"
#include "core/report_json.h"
#include "test_helpers.h"

namespace eid::api {
namespace {

using test::DayBuilder;
using test::MapWhois;

constexpr util::Day kDay = 16100;
constexpr std::size_t kChunkSizes[] = {1, 7, 4096};
constexpr std::size_t kWholeDay = 0;  ///< VectorSource: the day as one chunk

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

/// The operation day under test: browsing plus a fresh campaign (beaconing
/// C&C + delivery domain) so C&C detection and both BP modes all fire.
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

/// Labeled training days (the TrainedFixture world of core_pipeline_test).
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

core::PipelineConfig test_config() {
  core::PipelineConfig config;
  config.ua_rare_threshold = 3;
  return config;
}

// ---- deep comparisons ----

void expect_same_analysis(const core::DayAnalysis& a, const core::DayAnalysis& b) {
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.new_domains, b.new_domains);
  EXPECT_EQ(a.total_domains, b.total_domains);
  EXPECT_EQ(a.graph.host_count(), b.graph.host_count());
  EXPECT_EQ(a.graph.domain_count(), b.graph.domain_count());
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.rare, b.rare);
  EXPECT_EQ(a.automation.pair_count(), b.automation.pair_count());
  EXPECT_DOUBLE_EQ(a.whois_defaults.age_days, b.whois_defaults.age_days);
  EXPECT_DOUBLE_EQ(a.whois_defaults.validity_days, b.whois_defaults.validity_days);
}

void expect_same_scored(const std::vector<core::ScoredDomain>& a,
                        const std::vector<core::ScoredDomain>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    EXPECT_DOUBLE_EQ(a[i].period, b[i].period);
    EXPECT_EQ(a[i].auto_hosts, b[i].auto_hosts);
  }
}

void expect_same_bp(const core::BpRunReport& a, const core::BpRunReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.domains.size(), b.domains.size());
  for (std::size_t i = 0; i < a.domains.size(); ++i) {
    EXPECT_EQ(a.domains[i].name, b.domains[i].name);
    EXPECT_DOUBLE_EQ(a.domains[i].score, b.domains[i].score);
    EXPECT_EQ(a.domains[i].reason, b.domains[i].reason);
    EXPECT_EQ(a.domains[i].iteration, b.domains[i].iteration);
  }
  EXPECT_EQ(a.hosts, b.hosts);
}

void expect_same_report(const core::DayReport& a, const core::DayReport& b) {
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_EQ(a.domains, b.domains);
  EXPECT_EQ(a.rare_domains, b.rare_domains);
  EXPECT_EQ(a.automated_pairs, b.automated_pairs);
  expect_same_scored(a.automated_scores, b.automated_scores);
  expect_same_scored(a.cc_domains, b.cc_domains);
  expect_same_bp(a.nohint, b.nohint);
  expect_same_bp(a.sochints, b.sochints);
}

// ---- tests ----

TEST(ApiEquivalenceTest, AnalysisIsChunkInvariant) {
  MapWhois whois;
  Detector detector(test_config(), whois);
  VectorSource profile(kDay - 2, browsing_day(kDay - 2));
  detector.ingest(profile);

  auto events = campaign_day(kDay, whois);
  VectorSource whole(kDay, &events, kWholeDay);
  const core::DayAnalysis reference = detector.analyze_stream(whole, kDay);
  ASSERT_GT(reference.rare.size(), 0u);
  ASSERT_GT(reference.automation.pair_count(), 0u);

  for (const std::size_t chunk_size : kChunkSizes) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk_size));
    VectorSource source(kDay, &events, chunk_size);
    expect_same_analysis(reference, detector.analyze_stream(source, kDay));
  }
}

/// Everything one full lifecycle (profile, labeled training, operation
/// day, next-day analysis) produces when every day arrives in
/// `chunk_size` chunks.
struct Lifecycle {
  core::TrainingReport training;
  core::DayReport report;
  core::DayAnalysis next;
  std::size_t domains = 0;
  std::size_t uas = 0;
};

Lifecycle run_lifecycle(std::size_t chunk_size) {
  MapWhois whois;
  std::set<std::string> reported;
  const auto train = training_days(whois, reported);
  const core::LabelFn intel = [&reported](const std::string& domain) {
    return reported.contains(domain);
  };
  Detector detector(test_config(), whois);
  for (const util::Day day : {kDay - 4, kDay - 3}) {
    VectorSource source(day, browsing_day(day), chunk_size);
    detector.ingest(source);
  }
  for (const auto& day : train) {
    VectorSource source(day.day, &day.events, chunk_size);
    detector.ingest(source, intel);
  }
  Lifecycle out;
  out.training = detector.finalize_training();

  // Operation day with SOC seeds so both BP modes fire.
  auto events = campaign_day(kDay, whois);
  core::SocSeeds seeds;
  seeds.domains = {"ioc-domain.ru"};
  VectorSource source(kDay, &events, chunk_size);
  out.report = detector.run_day(source, kDay, seeds);

  // The end-of-day history update shows in the next day's analysis.
  const auto tomorrow = browsing_day(kDay + 1);
  VectorSource next_source(kDay + 1, &tomorrow, chunk_size);
  out.next = detector.analyze_stream(next_source, kDay + 1);
  out.domains = detector.pipeline().domain_history().size();
  out.uas = detector.pipeline().ua_history().distinct_uas();
  return out;
}

// Full lifecycle parity: profile, labeled training and an operation day
// fed in small chunks must match the same days fed whole.
TEST(ApiEquivalenceTest, LifecycleIsChunkInvariant) {
  const Lifecycle reference = run_lifecycle(kWholeDay);
  ASSERT_FALSE(reference.report.cc_domains.empty());
  for (const std::size_t chunk_size : kChunkSizes) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk_size));
    const Lifecycle streamed = run_lifecycle(chunk_size);
    EXPECT_EQ(reference.training.cc_rows, streamed.training.cc_rows);
    EXPECT_EQ(reference.training.cc_positive, streamed.training.cc_positive);
    EXPECT_EQ(reference.training.sim_rows, streamed.training.sim_rows);
    EXPECT_EQ(reference.training.sim_positive, streamed.training.sim_positive);
    ASSERT_EQ(reference.training.cc_training_scores.size(),
              streamed.training.cc_training_scores.size());
    for (std::size_t i = 0; i < reference.training.cc_training_scores.size();
         ++i) {
      EXPECT_DOUBLE_EQ(reference.training.cc_training_scores[i].first,
                       streamed.training.cc_training_scores[i].first);
    }
    expect_same_report(reference.report, streamed.report);
    expect_same_analysis(reference.next, streamed.next);
    EXPECT_EQ(reference.domains, streamed.domains);
    EXPECT_EQ(reference.uas, streamed.uas);
  }
}

// The parallel engine contract: a fully trained detector must emit a
// bit-identical DayReport for every combination of analysis threads and
// chunk size — the chunking guarantee, extended to the parallel knobs.
TEST(ApiEquivalenceTest, ParallelConfigsBitIdenticalAtEveryChunkSize) {
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t chunk_size : {1u, 4096u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", chunk " +
                   std::to_string(chunk_size));
      MapWhois whois;
      std::set<std::string> reported;
      const auto train = training_days(whois, reported);
      const core::LabelFn intel = [&reported](const std::string& domain) {
        return reported.contains(domain);
      };

      core::PipelineConfig config = test_config();
      config.parallelism.threads = threads;
      Detector detector(config, whois);
      for (const util::Day day : {kDay - 4, kDay - 3}) {
        VectorSource source(day, browsing_day(day), chunk_size);
        detector.ingest(source);
      }
      for (const auto& day : train) {
        VectorSource source(day.day, &day.events, chunk_size);
        detector.ingest(source, intel);
      }
      detector.finalize_training();

      auto events = campaign_day(kDay, whois);
      core::SocSeeds seeds;
      seeds.domains = {"ioc-domain.ru"};
      VectorSource source(kDay, &events, chunk_size);
      const std::string json =
          core::day_report_to_json(detector.run_day(source, kDay, seeds));
      ASSERT_NE(json.find("evil-cc.ru"), std::string::npos);
      if (baseline.empty()) {
        baseline = json;
      } else {
        EXPECT_EQ(json, baseline);
      }
    }
  }
}

// The profiling accumulator (O(distinct) memory, no graph) must leave the
// histories identical for any chunking of the day.
TEST(ApiEquivalenceTest, ProfilingIsChunkInvariant) {
  MapWhois whois;
  auto events = campaign_day(kDay - 2, whois);

  Detector reference(test_config(), whois);
  VectorSource whole(kDay - 2, &events, kWholeDay);
  reference.ingest(whole);
  const core::Pipeline& batch = reference.pipeline();

  for (const std::size_t chunk_size : kChunkSizes) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk_size));
    Detector detector(test_config(), whois);
    VectorSource source(kDay - 2, &events, chunk_size);
    const IngestReport ingested = detector.ingest(source);
    EXPECT_EQ(ingested.days, 1u);
    EXPECT_EQ(ingested.events, events.size());

    const core::Pipeline& streamed = detector.pipeline();
    EXPECT_EQ(batch.domain_history().size(), streamed.domain_history().size());
    EXPECT_EQ(batch.domain_history().days_ingested(),
              streamed.domain_history().days_ingested());
    EXPECT_EQ(batch.ua_history().distinct_uas(),
              streamed.ua_history().distinct_uas());
    batch.ua_history().for_each_entry(
        [&](const std::string& ua, bool popular, const auto& hosts) {
          EXPECT_EQ(streamed.ua_history().is_rare(ua), !popular) << ua;
          if (!popular) {
            EXPECT_EQ(streamed.ua_history().host_count(ua), hosts.size()) << ua;
          }
        });
    // Same rare extraction on the next day on both histories.
    auto next = browsing_day(kDay - 1);
    VectorSource reference_next(kDay - 1, &next);
    VectorSource next_source(kDay - 1, &next);
    expect_same_analysis(reference.analyze_stream(reference_next, kDay - 1),
                         detector.analyze_stream(next_source, kDay - 1));
  }
}

}  // namespace
}  // namespace eid::api
