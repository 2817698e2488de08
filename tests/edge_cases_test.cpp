// Failure injection and degenerate-input coverage across modules: empty
// days, seeds that don't exist, all-identical timestamps, hostile strings —
// the detector must degrade gracefully, never crash or mislabel by
// accident.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "eval/metrics.h"
#include "logs/reduction.h"
#include "test_helpers.h"
#include "timing/periodicity.h"

namespace eid {
namespace {

using test::analyze_events;
using test::DayBuilder;
using test::MapWhois;

TEST(EdgeCaseTest, EmptyDayThroughPipeline) {
  MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  const core::Pipeline& pipeline = detector.pipeline();
  const core::DayAnalysis analysis = analyze_events(detector, {}, 100);
  EXPECT_EQ(analysis.graph.host_count(), 0u);
  EXPECT_TRUE(analysis.rare.empty());
  EXPECT_TRUE(pipeline.detect_cc(analysis).empty());
  const core::BpRunReport nohint = pipeline.run_bp_nohint(analysis, {});
  EXPECT_TRUE(nohint.domains.empty());
  EXPECT_TRUE(nohint.hosts.empty());
  const core::DayReport report = test::run_events(detector, {}, 100);
  EXPECT_EQ(report.events, 0u);
}

TEST(EdgeCaseTest, SeedsAbsentFromTodayAreIgnored) {
  MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  DayBuilder builder;
  builder.visit("h1", "present.com", 1000);
  const core::DayAnalysis analysis =
      analyze_events(detector, builder.events(), 100);
  core::SocSeeds seeds;
  seeds.hosts = {"ghost-host"};
  seeds.domains = {"ghost-domain.com"};
  const core::BpRunReport report =
      detector.pipeline().run_bp_sochints(analysis, seeds);
  EXPECT_TRUE(report.domains.empty());
  EXPECT_TRUE(report.hosts.empty());
}

TEST(EdgeCaseTest, IdenticalTimestampsAreNotAutomated) {
  // Zero-length intervals: the dominant "period" is 0; such bursts must
  // not be classified as beaconing by accident (divergence 0 against a
  // period-0 reference). This documents the behavior: a burst IS perfectly
  // periodic with period 0, so the min-interval count is the guard that
  // matters; the detector still returns finite values.
  std::vector<util::TimePoint> times(20, 5000);
  const timing::PeriodicityDetector detector;
  const auto result = detector.test(times);
  EXPECT_EQ(result.period, 0.0);
  EXPECT_TRUE(std::isfinite(result.divergence));
}

TEST(EdgeCaseTest, SingleConnectionNeverAutomated) {
  const timing::PeriodicityDetector detector;
  EXPECT_FALSE(detector.test(std::vector<util::TimePoint>{42}).automated);
  EXPECT_FALSE(detector.test({}).automated);
}

TEST(EdgeCaseTest, ReductionOfEmptyInputs) {
  logs::DnsReductionStats dns_stats;
  EXPECT_TRUE(logs::reduce_dns({}, logs::DnsReductionConfig{}, &dns_stats).empty());
  EXPECT_EQ(dns_stats.total_records, 0u);
  logs::DhcpTable leases;
  logs::ProxyReductionStats proxy_stats;
  EXPECT_TRUE(
      logs::reduce_proxy({}, leases, logs::ProxyReductionConfig{}, &proxy_stats)
          .empty());
}

TEST(EdgeCaseTest, HostileDomainStringsSurviveFolding) {
  for (const char* hostile :
       {"", ".", "..", "...", "a..b", ".leading.dot", "trailing.dot.",
        "UPPER.CASE.COM", "xn--punycode-thing.com"}) {
    const std::string folded = logs::fold_domain(hostile);
    // Must not crash and must be idempotent.
    EXPECT_EQ(logs::fold_domain(folded), folded) << hostile;
  }
}

TEST(EdgeCaseTest, ValidationOfEmptyDetectionSet) {
  sim::GroundTruth truth;
  const sim::IntelOracle oracle(truth);
  const eval::ValidationCounts counts = eval::validate_detections({}, oracle);
  EXPECT_EQ(counts.total(), 0u);
  EXPECT_DOUBLE_EQ(counts.tdr(), 0.0);
  EXPECT_DOUBLE_EQ(counts.ndr(), 0.0);
}

TEST(EdgeCaseTest, PipelineWithoutTrainingScoresWithDnsLogRules) {
  // Until finalize_training, set_models or a restore installs models, the
  // pipeline scores with the training-free rules of §V-B: a rare automated
  // domain is C&C when two hosts beacon to it at matching periods. One
  // beaconing host is not enough.
  MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  ASSERT_FALSE(detector.pipeline().models_ready());
  DayBuilder builder;
  builder.beacon("h1", "shared.com", 1000, 600, 50);
  builder.beacon("h2", "shared.com", 1300, 600, 50);
  builder.beacon("h3", "solo.com", 1000, 600, 50);
  const core::DayAnalysis analysis =
      analyze_events(detector, builder.events(), 100);
  EXPECT_EQ(analysis.automation.pair_count(), 3u);
  const std::vector<core::ScoredDomain> cc =
      detector.pipeline().detect_cc(analysis);
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_EQ(cc[0].name, "shared.com");
  EXPECT_DOUBLE_EQ(cc[0].score, 1.0);
  EXPECT_EQ(cc[0].auto_hosts, 2u);
}

TEST(EdgeCaseTest, TrainingWithTooFewRowsKeepsEmptyModel) {
  MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  DayBuilder builder;
  builder.beacon("h1", "only-one.com", 1000, 600, 50);
  api::VectorSource source(100, &builder.events());
  detector.ingest(source, [](const std::string&) { return true; });
  const core::TrainingReport report = detector.finalize_training();
  EXPECT_LE(report.cc_rows, 1u);
  EXPECT_TRUE(report.cc_model.weights.empty());  // n <= p: no fit attempted
}

TEST(EdgeCaseTest, DuplicateSeedDomainsHandledOnce) {
  MapWhois whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  DayBuilder builder;
  builder.visit("h1", "seed.com", 1000);
  builder.visit("h1", "other.com", 1010);
  const core::DayAnalysis analysis =
      analyze_events(detector, builder.events(), 100);
  core::SocSeeds seeds;
  seeds.domains = {"seed.com", "seed.com", "seed.com"};
  const core::BpRunReport report =
      detector.pipeline().run_bp_sochints(analysis, seeds);
  // The seed must never be reported as a detection, however many times it
  // was passed in.
  for (const auto& det : report.domains) EXPECT_NE(det.name, "seed.com");
}

TEST(EdgeCaseTest, RareSetWithIdsOutsideGraphIsHarmless) {
  DayBuilder builder;
  builder.visit("h1", "a.com", 1000);
  const graph::DayGraph graph = builder.build();
  EXPECT_TRUE(graph.domain_hosts(999).empty());
  EXPECT_TRUE(graph.host_domains(999).empty());
  EXPECT_TRUE(graph.domain_ips(999).empty());
}

}  // namespace
}  // namespace eid
