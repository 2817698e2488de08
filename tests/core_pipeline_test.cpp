#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "test_helpers.h"

namespace eid::core {
namespace {

using test::analyze_events;
using test::DayBuilder;
using test::MapWhois;
using test::profile_events;

constexpr util::Day kDay = 16100;

std::vector<logs::ConnEvent> browsing_day(util::Day day) {
  // A stable population visiting stable domains (so histories make them old).
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

TEST(PipelineTest, ProfileDaysSuppressKnownDomains) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);
  profile_events(detector, browsing_day(kDay - 2), kDay - 2);
  const DayAnalysis analysis =
      analyze_events(detector, browsing_day(kDay), kDay);
  EXPECT_EQ(analysis.rare.size(), 0u);  // everything already in history
  EXPECT_EQ(analysis.new_domains, 0u);
}

TEST(PipelineTest, FreshDomainsAreRare) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);
  profile_events(detector, browsing_day(kDay - 2), kDay - 2);
  auto events = browsing_day(kDay);
  DayBuilder extra;
  extra.visit("h1", "never-seen.com", util::day_start(kDay) + 5000);
  events.push_back(extra.events().front());
  const DayAnalysis analysis = analyze_events(detector, events, kDay);
  EXPECT_EQ(analysis.rare.size(), 1u);
}

TEST(PipelineTest, UpdateHistoriesMakesTodayOld) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);
  auto events = browsing_day(kDay);
  // The fixture's domains are visited by 12 hosts (popular), so check the
  // new-domain count rather than the rare set.
  const DayAnalysis today = analyze_events(detector, events, kDay);
  EXPECT_GT(today.new_domains, 0u);
  detector.update_histories(today);
  EXPECT_EQ(analyze_events(detector, events, kDay + 1).new_domains, 0u);
}

// A small but complete world: popular browsing + a labeled beaconing
// malicious domain + a labeled benign automated service, enough for the
// regressions to find separating weights.
struct TrainedFixture {
  MapWhois whois;
  std::unique_ptr<api::Detector> detector;
  std::set<std::string> reported;

  TrainedFixture() {
    PipelineConfig config;
    config.ua_rare_threshold = 3;
    detector = std::make_unique<api::Detector>(config, whois);

    // Bootstrap: two profile days teach the UA history that CommonUA is
    // popular and register the popular domains.
    profile_events(*detector, browsing_day(kDay - 4), kDay - 4);
    profile_events(*detector, browsing_day(kDay - 3), kDay - 3);

    const LabelFn intel = [this](const std::string& domain) {
      return reported.contains(domain);
    };

    // Training days: each day one fresh malicious beacon (young domain, no
    // referer, no UA) and one fresh benign automated service (old domain,
    // common UA). Labels come from `reported`.
    for (int i = 0; i < 10; ++i) {
      const util::Day day = kDay - 2 + 0 * i;  // same nominal day is fine
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
      // Delivery-stage domain: visited by h1 seconds before the first
      // beacon, same /24 as the C&C — the positive rows of the similarity
      // regression.
      const std::string drop = "drop" + std::to_string(i) + ".ru";
      whois.add(drop, day - 6, day + 60);
      reported.insert(drop);
      extra.visit("h1", drop, base + 1985,
                  util::Ipv4::from_octets(203, 0, 113, 9), "", false);
      // Coincidental benign rare domain also visited by h1, far in time.
      const std::string blog = "blog" + std::to_string(i) + ".com";
      whois.add(blog, day - 800, day + 900);
      extra.visit("h1", blog, base + 30000,
                  util::Ipv4::from_octets(9, 9, 9, 9), "CommonUA", true);
      for (const auto& ev : extra.events()) events.push_back(ev);
      api::VectorSource source(day, &events);
      detector->ingest(source, intel);
    }
  }
};

TEST(PipelineTest, TrainingSeparatesReportedFromLegitimate) {
  TrainedFixture fx;
  const TrainingReport report = fx.detector->finalize_training();
  EXPECT_EQ(report.cc_rows, 20u);
  EXPECT_EQ(report.cc_positive, 10u);
  ASSERT_FALSE(report.cc_training_scores.empty());
  double reported_sum = 0.0;
  double legit_sum = 0.0;
  for (const auto& [score, is_reported] : report.cc_training_scores) {
    (is_reported ? reported_sum : legit_sum) += score;
  }
  EXPECT_GT(reported_sum / 10.0, legit_sum / 10.0 + 0.2);
}

TEST(PipelineTest, OperationDetectsFreshCampaign) {
  TrainedFixture fx;
  fx.detector->finalize_training();

  // Operation day: a new campaign with a beaconing C&C plus a delivery
  // domain visited seconds before the first beacon, same /24.
  const util::Day day = kDay;
  const util::TimePoint base = util::day_start(day);
  auto events = browsing_day(day);
  DayBuilder extra;
  fx.whois.add("evil-cc.ru", day - 3, day + 40);
  fx.whois.add("evil-drop.ru", day - 4, day + 40);
  extra.visit("h5", "evil-drop.ru", base + 1990,
              util::Ipv4::from_octets(198, 51, 100, 7), "", false);
  extra.beacon("h5", "evil-cc.ru", base + 2040, 600, 40,
               util::Ipv4::from_octets(198, 51, 100, 9), "");
  for (const auto& ev : extra.events()) events.push_back(ev);

  const DayReport report = test::run_events(*fx.detector, events, day);
  ASSERT_FALSE(report.cc_domains.empty());
  EXPECT_EQ(report.cc_domains[0].name, "evil-cc.ru");
  // Belief propagation should pull in the delivery domain.
  bool found_drop = false;
  for (const auto& det : report.nohint.domains) {
    if (det.name == "evil-drop.ru") found_drop = true;
  }
  EXPECT_TRUE(found_drop);
}

TEST(PipelineTest, SocHintsModeExpandsFromSeeds) {
  TrainedFixture fx;
  fx.detector->finalize_training();

  const util::Day day = kDay;
  const util::TimePoint base = util::day_start(day);
  auto events = browsing_day(day);
  DayBuilder extra;
  fx.whois.add("ioc-domain.ru", day - 10, day + 30);
  fx.whois.add("related.ru", day - 9, day + 30);
  extra.visit("h6", "ioc-domain.ru", base + 3000,
              util::Ipv4::from_octets(198, 51, 100, 20), "", false);
  extra.visit("h6", "related.ru", base + 3030,
              util::Ipv4::from_octets(198, 51, 100, 21), "", false);
  for (const auto& ev : extra.events()) events.push_back(ev);

  const DayAnalysis analysis = analyze_events(*fx.detector, events, day);
  SocSeeds seeds;
  seeds.domains = {"ioc-domain.ru"};
  const BpRunReport report =
      fx.detector->pipeline().run_bp_sochints(analysis, seeds, 0.3);
  bool found = false;
  for (const auto& det : report.domains) {
    if (det.name == "related.ru") found = true;
  }
  EXPECT_TRUE(found);
  // The seed itself is not reported as a detection.
  for (const auto& det : report.domains) EXPECT_NE(det.name, "ioc-domain.ru");
}

/// A hand-built model scoring feature `weighted` alone (weight 1), or
/// nothing when `weighted` is out of range.
ScoredModel one_feature_model(std::size_t n_features, std::size_t weighted) {
  ScoredModel m;
  m.model.weights.assign(n_features, 0.0);
  if (weighted < n_features) m.model.weights[weighted] = 1.0;
  // Identity scaler: fit on rows of 0 and 1 per column.
  ml::Matrix fit_data(2, n_features);
  for (std::size_t c = 0; c < n_features; ++c) fit_data.at(1, c) = 1.0;
  m.scaler.fit(fit_data);
  return m;
}

std::vector<std::pair<std::string, double>> named_scores(
    const std::vector<ScoredDomain>& scored) {
  std::vector<std::pair<std::string, double>> out;
  for (const ScoredDomain& s : scored) out.emplace_back(s.name, s.score);
  return out;
}

TEST(PipelineTest, CcSweepOrdersByScoreAndReportDayMatchesDetectCc) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);
  // NoRef (C&C feature 2) alone drives the score.
  detector.set_models(one_feature_model(features::kCcFeatureCount, 2),
                      one_feature_model(features::kSimFeatureCount,
                                        features::kSimFeatureCount));
  DayBuilder builder;
  builder.beacon("h1", "high.com", 1000, 600, 50);
  builder.beacon("h2", "low.com", 1000, 600, 50);
  builder.visit("h3", "low.com", 5000, {0}, "UA", true);  // referer visit
  const DayAnalysis analysis = analyze_events(detector, builder.events(), kDay);
  Pipeline& pipeline = detector.pipeline();

  const std::vector<ScoredDomain> scored = pipeline.score_automated(analysis);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].name, "high.com");
  EXPECT_GT(scored[0].score, scored[1].score);
  EXPECT_NEAR(scored[0].period, 600.0, 1.0);
  EXPECT_TRUE(pipeline.detect_cc(analysis, scored[0].score + 1.0).empty());
  EXPECT_EQ(pipeline.detect_cc(analysis, scored[0].score).size(), 1u);

  // report_day scores each domain once and keeps those at or above Tc:
  // the same list detect_cc returns at that Tc, at every cut.
  for (const double tc : {scored[0].score + 1.0, scored[0].score,
                          scored[1].score, scored[1].score - 1.0}) {
    PipelineConfig config = pipeline.config();
    config.cc_threshold = tc;
    pipeline.set_config(config);
    const DayReport report = pipeline.report_day(analysis, {});
    EXPECT_EQ(named_scores(report.automated_scores), named_scores(scored));
    EXPECT_EQ(named_scores(report.cc_domains),
              named_scores(pipeline.detect_cc(analysis, tc)));
  }
}

TEST(PipelineTest, LabelHostsAndSeedHostsMakeTheCompromisedSet) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);  // untrained: §V-B rules
  const util::Ipv4 cc_ip = util::Ipv4::from_octets(198, 51, 100, 9);
  const util::Ipv4 drop_ip = util::Ipv4::from_octets(198, 51, 100, 7);
  DayBuilder builder;
  // h1 (the hint) and h2 beacon to cc.c3 at one period: a C&C label that
  // adds h2. drop.c3 shares the C&C's /24 and was visited by h2 and h3
  // just before the first beacon: a similarity label that adds h3.
  builder.beacon("h1", "cc.c3", 1000, 600, 40, cc_ip);
  builder.beacon("h2", "cc.c3", 1200, 600, 40, cc_ip);
  builder.visit("h2", "drop.c3", 950, drop_ip);
  builder.visit("h3", "drop.c3", 960, drop_ip);
  const DayAnalysis analysis = analyze_events(detector, builder.events(), kDay);
  SocSeeds seeds;
  seeds.hosts = {"h1"};
  const BpRunReport report = detector.pipeline().run_bp_sochints(analysis, seeds);

  ASSERT_EQ(report.domains.size(), 2u);
  EXPECT_EQ(report.domains[0].name, "cc.c3");
  EXPECT_EQ(report.domains[0].reason, LabelReason::CandC);
  EXPECT_EQ(report.domains[0].new_hosts, std::vector<std::string>{"h2"});
  EXPECT_EQ(report.domains[1].name, "drop.c3");
  EXPECT_EQ(report.domains[1].reason, LabelReason::Similarity);
  EXPECT_EQ(report.domains[1].new_hosts, std::vector<std::string>{"h3"});
  std::vector<std::string> hosts = seeds.hosts;
  for (const DetectedDomain& label : report.domains) {
    hosts.insert(hosts.end(), label.new_hosts.begin(), label.new_hosts.end());
  }
  EXPECT_EQ(hosts, report.hosts);
}

// Tc has one home, config().cc_threshold: raising it through set_config
// moves BP's C&C pass as well as the sweep, on a detector whose models
// were installed at the old Tc.
TEST(PipelineTest, SetConfigMovesTcForBpCcLabels) {
  MapWhois whois;
  api::Detector detector(PipelineConfig{}, whois);
  detector.set_models(one_feature_model(features::kCcFeatureCount, 2),
                      one_feature_model(features::kSimFeatureCount,
                                        features::kSimFeatureCount));
  // h1 beacons to both domains; a referer visit by h3 halves mid.com's
  // NoRef score, so it sits between the default Tc and seed.com.
  DayBuilder builder;
  builder.beacon("h1", "seed.com", 1000, 600, 50);
  builder.beacon("h1", "mid.com", 1300, 600, 50);
  builder.visit("h3", "mid.com", 5000, {0}, "UA", true);
  const DayAnalysis analysis = analyze_events(detector, builder.events(), kDay);
  Pipeline& pipeline = detector.pipeline();

  const std::vector<ScoredDomain> scored = pipeline.score_automated(analysis);
  ASSERT_EQ(scored.size(), 2u);
  ASSERT_EQ(scored[0].name, "seed.com");
  ASSERT_EQ(scored[1].name, "mid.com");
  ASSERT_GE(scored[1].score, pipeline.config().cc_threshold);
  const std::vector<ScoredDomain> seed = {scored[0]};
  const auto cc_label = [&](const BpRunReport& report) {
    for (const DetectedDomain& label : report.domains) {
      if (label.name == "mid.com") return label.reason == LabelReason::CandC;
    }
    return false;
  };
  EXPECT_TRUE(cc_label(pipeline.run_bp_nohint(analysis, seed)));

  PipelineConfig config = pipeline.config();
  config.cc_threshold = (scored[0].score + scored[1].score) / 2.0;
  pipeline.set_config(config);
  EXPECT_EQ(named_scores(pipeline.detect_cc(analysis)), named_scores(seed));
  EXPECT_FALSE(cc_label(pipeline.run_bp_nohint(analysis, seed)));
}

}  // namespace
}  // namespace eid::core
