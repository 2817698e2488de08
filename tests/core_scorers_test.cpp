#include "core/scorers.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace eid::core {
namespace {

using test::DayBuilder;
using test::MapWhois;

constexpr util::Day kToday = 16100;

util::Ipv4 ip(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return util::Ipv4::from_octets(a, b, c, d);
}

struct Fixture {
  graph::DayGraph graph;
  std::unordered_set<graph::DomainId> rare;
  features::AutomationAnalysis automation;
  profile::UaHistory ua_history{3};
  MapWhois whois;

  explicit Fixture(const DayBuilder& builder) : graph(builder.build()) {
    std::vector<graph::DomainId> all;
    for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
      all.push_back(d);
      rare.insert(d);
    }
    automation =
        features::AutomationAnalysis::analyze(graph, all,
                                              timing::PeriodicityDetector{});
  }

  DayState state() const {
    return DayState{graph, rare, automation, ua_history, whois, kToday,
                    features::WhoisDefaults{}};
  }
};

TEST(LanlScorerTest, CcNeedsTwoHostsWithMatchingPeriods) {
  DayBuilder builder;
  builder.beacon("h1", "both.c3", 1000, 600, 40);
  builder.beacon("h2", "both.c3", 1500, 600, 40);
  builder.beacon("h3", "solo.c3", 1000, 600, 40);
  builder.beacon("h4", "mismatch.c3", 1000, 300, 60);
  builder.beacon("h5", "mismatch.c3", 1000, 900, 40);
  Fixture fx(builder);
  const LanlScorer scorer(fx.state());
  EXPECT_TRUE(scorer.detect_cc(fx.graph.find_domain("both.c3")));
  EXPECT_FALSE(scorer.detect_cc(fx.graph.find_domain("solo.c3")));
  EXPECT_FALSE(scorer.detect_cc(fx.graph.find_domain("mismatch.c3")));
  // The rule is the C&C score: 1.0 when it holds, else 0.0.
  EXPECT_DOUBLE_EQ(scorer.cc_score(fx.graph.find_domain("both.c3")), 1.0);
  EXPECT_DOUBLE_EQ(scorer.cc_score(fx.graph.find_domain("solo.c3")), 0.0);
}

TEST(LanlScorerTest, PeriodMatchToleranceIsTenSeconds) {
  DayBuilder builder;
  builder.beacon("h1", "close.c3", 1000, 600, 40);
  builder.beacon("h2", "close.c3", 1500, 608, 40);  // within 10 s
  Fixture fx(builder);
  const LanlScorer scorer(fx.state());
  EXPECT_TRUE(scorer.detect_cc(fx.graph.find_domain("close.c3")));
}

TEST(LanlScorerTest, AdditiveComponents) {
  DayBuilder builder;
  builder.visit("h1", "labeled.c3", 1000, ip(203, 0, 113, 5));
  // Candidate: 2 hosts, visited 100 s after labeled by h1, same /24.
  builder.visit("h1", "cand.c3", 1100, ip(203, 0, 113, 80));
  builder.visit("h2", "cand.c3", 9000, ip(203, 0, 113, 80));
  Fixture fx(builder);
  const LanlScorer scorer(fx.state());
  const std::vector<graph::DomainId> labeled = {fx.graph.find_domain("labeled.c3")};
  const auto c =
      scorer.components(fx.graph.find_domain("cand.c3"), labeled);
  EXPECT_DOUBLE_EQ(c.connectivity, 0.2);  // 2 hosts / cap 10
  EXPECT_DOUBLE_EQ(c.timing, 1.0);        // 100 s <= 160 s
  EXPECT_DOUBLE_EQ(c.ip, 2.0);            // same /24
  // Normalized: (0.2 + 1 + 2) / 4 = 0.8.
  EXPECT_DOUBLE_EQ(scorer.similarity_score(fx.graph.find_domain("cand.c3"), labeled),
                   0.8);
}

TEST(LanlScorerTest, ScoreIsInUnitInterval) {
  DayBuilder builder;
  builder.visit("h1", "labeled.c3", 1000, ip(203, 0, 113, 5));
  for (int i = 0; i < 15; ++i) {
    builder.visit("h" + std::to_string(i), "cand.c3", 1001 + i,
                  ip(203, 0, 113, 99));
  }
  Fixture fx(builder);
  const LanlScorer scorer(fx.state());
  const std::vector<graph::DomainId> labeled = {fx.graph.find_domain("labeled.c3")};
  const double score =
      scorer.similarity_score(fx.graph.find_domain("cand.c3"), labeled);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(LanlScorerTest, TimingComponentRespectsThreshold) {
  DayBuilder builder;
  builder.visit("h1", "labeled.c3", 1000);
  builder.visit("h1", "near.c3", 1150);   // 150 s
  builder.visit("h1", "far.c3", 2000);    // 1000 s
  Fixture fx(builder);
  const LanlScorer scorer(fx.state());
  const std::vector<graph::DomainId> labeled = {fx.graph.find_domain("labeled.c3")};
  EXPECT_DOUBLE_EQ(scorer.components(fx.graph.find_domain("near.c3"), labeled).timing,
                   1.0);
  EXPECT_DOUBLE_EQ(scorer.components(fx.graph.find_domain("far.c3"), labeled).timing,
                   0.0);
}

ScoredModel hand_model(std::vector<double> weights, double intercept,
                       std::size_t n_features) {
  ScoredModel m;
  m.model.weights = std::move(weights);
  m.model.intercept = intercept;
  // Identity-ish scaler: fit on rows of 0 and 1 per column.
  ml::Matrix fit_data(2, n_features);
  for (std::size_t c = 0; c < n_features; ++c) {
    fit_data.at(0, c) = 0.0;
    fit_data.at(1, c) = 1.0;
  }
  m.scaler.fit(fit_data);
  return m;
}

TEST(EnterpriseScorerTest, DetectCcRequiresRareAutomatedAndScore) {
  DayBuilder builder;
  builder.beacon("h1", "beacon.com", 1000, 600, 50, ip(1, 2, 3, 4), "");
  builder.visit("h1", "single.com", 1000);
  Fixture fx(builder);
  // Score = NoRef weight 1.0 * value (both domains are referer-less here),
  // so both clear the 0.4 threshold; only the automated one is C&C.
  std::vector<double> cc_weights(features::kCcFeatureCount, 0.0);
  cc_weights[2] = 1.0;  // NoRef
  const ScoredModel cc = hand_model(cc_weights, 0.0, features::kCcFeatureCount);
  const ScoredModel sim =
      hand_model(std::vector<double>(features::kSimFeatureCount, 0.0), 0.0,
                 features::kSimFeatureCount);
  const DayState state = fx.state();
  const EnterpriseScorer scorer(state, cc, sim, /*cc_threshold=*/0.4);
  EXPECT_TRUE(scorer.detect_cc(fx.graph.find_domain("beacon.com")));
  EXPECT_FALSE(scorer.detect_cc(fx.graph.find_domain("single.com")));
}

TEST(EnterpriseScorerTest, NonRareDomainNeverCc) {
  DayBuilder builder;
  builder.beacon("h1", "beacon.com", 1000, 600, 50);
  Fixture fx(builder);
  fx.rare.clear();  // nothing is rare today
  std::vector<double> cc_weights(features::kCcFeatureCount, 1.0);
  const ScoredModel cc = hand_model(cc_weights, 10.0, features::kCcFeatureCount);
  const ScoredModel sim =
      hand_model(std::vector<double>(features::kSimFeatureCount, 0.0), 0.0,
                 features::kSimFeatureCount);
  const DayState state = fx.state();
  const EnterpriseScorer scorer(state, cc, sim, /*cc_threshold=*/0.0);
  EXPECT_FALSE(scorer.detect_cc(fx.graph.find_domain("beacon.com")));
}

}  // namespace
}  // namespace eid::core
