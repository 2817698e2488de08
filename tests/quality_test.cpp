// Detection-quality gate on the canonical LANL world (bench::lanl_config(),
// the world the Table III and Fig. 4 benches print): the per-day counts of
// the 20 challenge days, the totals and rates, and the 2013-03-19 belief
// propagation walkthrough; and on the canonical AC world
// (bench::ac_config()), the two ends of the Fig. 6a C&C threshold sweep.
// A change that moves any pinned value re-pins it in the same change and
// states the move.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "../bench/bench_common.h"
#include "eval/ac_runner.h"
#include "eval/lanl_runner.h"

namespace eid::eval {
namespace {

struct DayRow {
  const char* day;
  int case_id;
  bool training;
  std::size_t tp, fp, fn;
};

// Table III per-day detail (bench_table3_lanl_results).
const DayRow kDays[] = {
    {"2013-03-02", 1, true, 4, 0, 0},  {"2013-03-03", 1, true, 3, 0, 0},
    {"2013-03-04", 1, true, 4, 0, 0},  {"2013-03-05", 2, true, 4, 0, 0},
    {"2013-03-06", 2, false, 3, 0, 0}, {"2013-03-07", 2, true, 4, 0, 0},
    {"2013-03-08", 2, false, 4, 0, 0}, {"2013-03-09", 1, false, 4, 0, 0},
    {"2013-03-10", 1, false, 4, 0, 0}, {"2013-03-11", 2, false, 3, 0, 0},
    {"2013-03-12", 2, true, 3, 0, 0},  {"2013-03-13", 2, false, 3, 0, 0},
    {"2013-03-14", 3, true, 3, 0, 0},  {"2013-03-15", 3, true, 3, 0, 0},
    {"2013-03-17", 3, true, 3, 0, 0},  {"2013-03-18", 3, true, 3, 0, 0},
    {"2013-03-19", 3, false, 4, 0, 0}, {"2013-03-20", 3, false, 3, 0, 0},
    {"2013-03-21", 3, false, 4, 0, 0}, {"2013-03-22", 4, false, 4, 1, 0},
};

void expect_rates(const DetectionCounts& counts, double tdr, double fdr,
                  double fnr) {
  EXPECT_NEAR(100.0 * counts.tdr(), tdr, 0.005);
  EXPECT_NEAR(100.0 * counts.fdr(), fdr, 0.005);
  EXPECT_NEAR(100.0 * counts.fnr(), fnr, 0.005);
}

TEST(QualityTest, LanlChallengeTableIII) {
  sim::LanlScenario scenario(bench::lanl_config());
  LanlRunner runner(scenario);
  const LanlChallengeResult result = runner.run_challenge();

  ASSERT_EQ(result.days.size(), std::size(kDays));
  for (std::size_t i = 0; i < result.days.size(); ++i) {
    const LanlDayResult& day = result.days[i];
    const DayRow& want = kDays[i];
    SCOPED_TRACE(want.day);
    EXPECT_EQ(util::format_day(day.challenge.day), want.day);
    EXPECT_EQ(day.challenge.case_id, want.case_id);
    EXPECT_EQ(day.challenge.training, want.training);
    EXPECT_EQ(day.counts.tp, want.tp);
    EXPECT_EQ(day.counts.fp, want.fp);
    EXPECT_EQ(day.counts.fn, want.fn);
  }

  EXPECT_EQ(result.total.tp, 70u);
  EXPECT_EQ(result.total.fp, 1u);
  EXPECT_EQ(result.total.fn, 0u);
  // Known gap: the paper reports FNR 6.25% (3 training + 1 testing FN);
  // every campaign domain of this simulated world is found.
  expect_rates(result.total, 98.59, 1.41, 0.00);
  expect_rates(result.training_total, 100.0, 0.0, 0.0);
  expect_rates(result.testing_total, 97.30, 2.70, 0.00);
}

struct Label {
  std::string domain;
  core::LabelReason reason;
  std::size_t iteration;
  std::vector<std::string> new_hosts;

  bool operator==(const Label&) const = default;
};

// Fig. 4: from the hint host, the C&C domain is found first (its second
// host joins the compromised set), then similarity labels the rest of the
// campaign one domain per iteration.
TEST(QualityTest, Fig4Walkthrough) {
  sim::LanlScenario scenario(bench::lanl_config());
  LanlRunner runner(scenario);
  runner.bootstrap();
  const util::Day target_day = util::make_day(2013, 3, 19);
  const sim::LanlCase* target = nullptr;
  for (const auto& challenge : scenario.cases()) {
    if (challenge.day == target_day) target = &challenge;
  }
  ASSERT_NE(target, nullptr);
  for (util::Day day = scenario.challenge_begin(); day < target_day; ++day) {
    runner.finish_day(day);
  }
  const core::DayAnalysis analysis = runner.analyze_day(target_day);
  const LanlDayResult result = runner.run_case(*target, analysis);

  EXPECT_EQ(target->hint_hosts, std::vector<std::string>{"182.133.12.110"});
  std::vector<Label> labels;
  for (const core::DetectedDomain& label : result.trace) {
    labels.push_back({label.name, label.reason, label.iteration, label.new_hosts});
  }
  using core::LabelReason;
  const std::vector<Label> want = {
      {"suruvoopi.c3", LabelReason::CandC, 1, {"45.41.209.27"}},
      {"tovutigi.c3", LabelReason::Similarity, 2, {}},
      {"vuchopi.c3", LabelReason::Similarity, 3, {}},
      {"lachasopo.c3", LabelReason::Similarity, 4, {}},
  };
  EXPECT_EQ(labels, want);
  EXPECT_EQ(result.detected_hosts,
            (std::vector<std::string>{"182.133.12.110", "45.41.209.27"}));
  EXPECT_EQ(result.counts.tp, 4u);
  EXPECT_EQ(result.counts.fp, 0u);
  EXPECT_EQ(result.counts.fn, 0u);
}

// Fig. 6a (bench_fig6a_cc_sweep): one operation pass over the AC month,
// each automated rare domain at its highest C&C score of the month, then
// the domains at or above Tc validated against the oracle.
TEST(QualityTest, AcFig6aCcSweep) {
  sim::AcScenario scenario(bench::ac_config());
  AcRunner runner(scenario);
  runner.train();
  std::map<std::string, double> best_score;
  runner.run_operation([&](util::Day, const core::DayAnalysis& analysis) {
    for (const auto& scored : runner.pipeline().score_automated(analysis)) {
      auto [it, inserted] = best_score.emplace(scored.name, scored.score);
      if (!inserted && scored.score > it->second) it->second = scored.score;
    }
  });
  const auto sweep = [&](double tc) {
    std::vector<std::string> detected;
    for (const auto& [name, score] : best_score) {
      if (score >= tc) detected.push_back(name);
    }
    return validate_detections(detected, scenario.oracle());
  };

  // Known gap: the paper detects 114 domains at Tc 0.40 and 19 at 0.48,
  // TDR 85.08% -> 94.7%. Here the legitimate band shrinks with Tc, but all
  // malicious and suspicious domains except one VT+SOC domain score above
  // 0.48, so the count falls far less (118 -> 100) and TDR stays lower
  // (71.19% -> 83.00%).
  const ValidationCounts low = sweep(0.40);
  EXPECT_EQ(low.total(), 118u);
  EXPECT_EQ(low.known_malicious, 36u);
  EXPECT_EQ(low.new_malicious, 8u);
  EXPECT_EQ(low.suspicious, 40u);
  EXPECT_EQ(low.legitimate, 34u);
  EXPECT_NEAR(100.0 * low.tdr(), 71.19, 0.005);

  const ValidationCounts high = sweep(0.48);
  EXPECT_EQ(high.total(), 100u);
  EXPECT_EQ(high.known_malicious, 35u);
  EXPECT_EQ(high.new_malicious, 8u);
  EXPECT_EQ(high.suspicious, 40u);
  EXPECT_EQ(high.legitimate, 17u);
  EXPECT_NEAR(100.0 * high.tdr(), 83.00, 0.005);
}

}  // namespace
}  // namespace eid::eval
