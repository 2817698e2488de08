// The checkpoint contract (acceptance criterion of the storage subsystem):
// a detector saved after N operation days and restored into a fresh
// detector produces a bit-identical DayReport for day N+1 versus the
// uninterrupted run — across thread counts, because the thread count is
// config state the checkpoint carries too.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/report_json.h"
#include "profile/top_sites.h"
#include "sim/ac.h"
#include "storage/state.h"

namespace eid {
namespace {

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 23;
  config.n_hosts = 60;
  config.n_popular = 30;
  config.tail_per_day = 15;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 2.0;
  return config;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-checkpoint-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    scenario_ = std::make_unique<sim::AcScenario>(small_world());
    // Pre-generate every day once (the simulator is deterministic but
    // forward-only); all detector runs then share identical inputs.
    const util::Day jan = scenario_->training_begin();
    for (int d = 0; d < kBootstrapDays + kLabeledDays; ++d) {
      training_.emplace_back(jan + d,
                             scenario_->simulator().reduced_day(jan + d));
    }
    const util::Day feb = scenario_->operation_begin();
    for (int d = 0; d <= kOperationDays; ++d) {
      operation_.emplace_back(feb + d,
                              scenario_->simulator().reduced_day(feb + d));
    }
    seeds_.domains = scenario_->ioc_seeds();
    top_sites_.add("top-whitelisted.example");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static constexpr int kBootstrapDays = 4;
  static constexpr int kLabeledDays = 6;
  static constexpr int kOperationDays = 2;  ///< N; day N+1 is compared

  api::Detector make_detector(core::Parallelism parallelism) {
    core::PipelineConfig config;
    config.parallelism = parallelism;
    api::Detector detector(config, scenario_->simulator().whois());
    detector.set_top_sites(&top_sites_);
    return detector;
  }

  void train(api::Detector& detector) {
    const sim::IntelOracle& oracle = scenario_->oracle();
    const core::LabelFn intel = [&oracle](const std::string& domain) {
      return oracle.vt_reported(domain);
    };
    for (int d = 0; d < kBootstrapDays; ++d) {
      api::VectorSource source(training_[d].first, &training_[d].second);
      detector.ingest(source);
    }
    for (int d = kBootstrapDays; d < kBootstrapDays + kLabeledDays; ++d) {
      api::VectorSource source(training_[d].first, &training_[d].second);
      detector.ingest(source, intel);
    }
    detector.finalize_training();
    detector.set_intel_domains(seeds_.domains);
  }

  core::DayReport run_operation_day(api::Detector& detector, int index) {
    api::VectorSource source(operation_[index].first,
                             &operation_[index].second);
    return detector.run_day(source, operation_[index].first, seeds_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::AcScenario> scenario_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> training_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> operation_;
  core::SocSeeds seeds_;
  profile::TopSitesList top_sites_;
};

TEST_F(CheckpointTest, RestoredDetectorReproducesDayNPlusOneBitExactly) {
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto state_path =
        dir_ / ("state-" + std::to_string(threads) + ".bin");

    // Uninterrupted run: train, operate N days, checkpoint, day N+1.
    api::Detector uninterrupted =
        make_detector(core::Parallelism{.threads = threads});
    train(uninterrupted);
    for (int d = 0; d < kOperationDays; ++d) {
      run_operation_day(uninterrupted, d);
    }
    storage::LoadStatus status;
    ASSERT_TRUE(uninterrupted.save_state(state_path, &status))
        << status.detail;
    const std::string baseline = core::day_report_to_json(
        run_operation_day(uninterrupted, kOperationDays));

    // Fresh detector (default config, no histories, no models): restore
    // everything from the checkpoint, then run day N+1.
    api::Detector restored = make_detector(core::Parallelism{});
    ASSERT_TRUE(restored.load_state(state_path, &status)) << status.detail;
    EXPECT_EQ(restored.pipeline().config().parallelism.threads, threads);
    EXPECT_TRUE(restored.pipeline().models_ready());
    EXPECT_EQ(restored.days_operated(),
              static_cast<std::size_t>(kOperationDays));
    const std::string resumed = core::day_report_to_json(
        run_operation_day(restored, kOperationDays));

    EXPECT_EQ(baseline, resumed);
  }
}

TEST_F(CheckpointTest, CheckpointCarriesHistoriesAndIntel) {
  api::Detector detector = make_detector(core::Parallelism{});
  train(detector);
  run_operation_day(detector, 0);
  const auto state_path = dir_ / "state.bin";
  ASSERT_TRUE(detector.save_state(state_path));

  api::Detector restored = make_detector(core::Parallelism{});
  ASSERT_TRUE(restored.load_state(state_path));
  EXPECT_EQ(restored.pipeline().domain_history().size(),
            detector.pipeline().domain_history().size());
  EXPECT_EQ(restored.pipeline().domain_history().days_ingested(),
            detector.pipeline().domain_history().days_ingested());
  EXPECT_EQ(restored.pipeline().ua_history().distinct_uas(),
            detector.pipeline().ua_history().distinct_uas());
  EXPECT_EQ(restored.intel_domains(), detector.intel_domains());
  // The restored whitelist is detector-owned — the original list can go
  // away without dangling.
  ASSERT_NE(restored.pipeline().top_sites(), nullptr);
  EXPECT_NE(restored.pipeline().top_sites(), &top_sites_);
  EXPECT_TRUE(restored.pipeline().top_sites()->contains(
      "top-whitelisted.example"));
  // The intel closure reproduces the IOC membership test.
  const core::LabelFn intel = restored.intel_fn();
  for (const std::string& domain : seeds_.domains) {
    EXPECT_TRUE(intel(domain)) << domain;
  }
  EXPECT_FALSE(intel("definitely-not-an-ioc.example"));
}

TEST_F(CheckpointTest, SaveStateIsAtomicOverExistingCheckpoint) {
  api::Detector detector = make_detector(core::Parallelism{});
  train(detector);
  const auto state_path = dir_ / "state.bin";
  ASSERT_TRUE(detector.save_state(state_path));
  // Overwrite via the tmp+rename path; the tmp file must not linger.
  run_operation_day(detector, 0);
  ASSERT_TRUE(detector.save_state(state_path));
  EXPECT_FALSE(std::filesystem::exists(state_path.string() + ".tmp"));
  api::Detector restored = make_detector(core::Parallelism{});
  ASSERT_TRUE(restored.load_state(state_path));
  EXPECT_EQ(restored.days_operated(), 1u);
}

}  // namespace
}  // namespace eid
