// Hot-standby contract (rt/standby.h): a replica tailing the primary's
// delta chain converges to the primary's exact detector state — frame by
// frame, across compactions, through torn tails — so its post-takeover
// day reports are bit-identical to the ones the primary would have
// produced. Plus the heartbeat beacon the takeover decision reads.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "core/report_json.h"
#include "profile/top_sites.h"
#include "rt/standby.h"
#include "sim/ac.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace eid {
namespace {

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 37;
  config.n_hosts = 60;
  config.n_popular = 30;
  config.tail_per_day = 15;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 2.0;
  return config;
}

class StandbyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-standby-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    state_path_ = dir_ / "state.bin";

    scenario_ = std::make_unique<sim::AcScenario>(small_world());
    const util::Day jan = scenario_->training_begin();
    for (int d = 0; d < kBootstrapDays + kLabeledDays; ++d) {
      training_.emplace_back(jan + d,
                             scenario_->simulator().reduced_day(jan + d));
    }
    const util::Day feb = scenario_->operation_begin();
    for (int d = 0; d < kOperationDays; ++d) {
      operation_.emplace_back(feb + d,
                              scenario_->simulator().reduced_day(feb + d));
    }
    seeds_.domains = scenario_->ioc_seeds();
    top_sites_.add("top-whitelisted.example");

    pretrain_ = dir_ / "pretrain.bin";
    api::Detector trained = make_detector();
    train(trained);
    storage::LoadStatus status;
    ASSERT_TRUE(trained.save_state(pretrain_, &status)) << status.detail;

    api::Detector baseline = make_pretrained();
    for (int d = 0; d < kOperationDays; ++d) {
      baseline_.push_back(
          core::day_report_to_json(run_operation_day(baseline, d)));
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static constexpr int kBootstrapDays = 4;
  static constexpr int kLabeledDays = 6;
  static constexpr int kOperationDays = 4;

  api::Detector make_detector() {
    core::PipelineConfig config;
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

  api::Detector make_pretrained() {
    api::Detector detector = make_detector();
    storage::LoadStatus status;
    EXPECT_TRUE(detector.load_state(pretrain_, &status)) << status.detail;
    return detector;
  }

  core::DayReport run_operation_day(api::Detector& detector, int index) {
    api::VectorSource source(operation_[index].first,
                             &operation_[index].second);
    return detector.run_day(source, operation_[index].first, seeds_);
  }

  std::filesystem::path dir_;
  std::filesystem::path state_path_;
  std::unique_ptr<sim::AcScenario> scenario_;
  std::filesystem::path pretrain_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> training_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> operation_;
  std::vector<std::string> baseline_;
  core::SocSeeds seeds_;
  profile::TopSitesList top_sites_;
};

TEST_F(StandbyTest, ReplicaTracksFramesAndTakesOverBitIdentically) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  // Nothing on disk yet: start fails, poll keeps retrying.
  storage::LoadStatus status;
  EXPECT_FALSE(replica.start(&status));
  EXPECT_EQ(status.error, storage::LoadError::FileNotFound);
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_FALSE(replica.started());

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  // Day 0: the primary's first checkpoint is the full base; the replica's
  // next poll attaches to it.
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_TRUE(replica.started());
  EXPECT_EQ(replica.last_seq(), 0u);

  // Days 1..2: one frame per checkpoint, applied as it lands.
  for (int d = 1; d <= 2; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
    EXPECT_EQ(replica.poll(), 1u) << "day " << d;
    EXPECT_EQ(replica.last_seq(), static_cast<std::uint64_t>(d));
  }
  EXPECT_EQ(replica.stats().frames_applied, 2u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);
  EXPECT_EQ(warm.days_operated(), 3u);
  EXPECT_TRUE(warm.pipeline().models_ready());

  // An idle poll applies nothing and reloads nothing.
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);

  // Primary dies; the warm replica owns day 3 — bit-identical to the
  // report the uninterrupted primary would have produced.
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);
}

TEST_F(StandbyTest, ReplicaSurvivesCompactionByReloadingTheNewBase) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  api::CheckpointPolicy policy;
  policy.full_every = 2;  // every second save rewrites the base
  storage::LoadStatus status;
  for (int d = 0; d < 3; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
    replica.poll();
  }
  // Saves 0 (full), 1 (frame), 2 (compaction): the chain shrank under the
  // replica at least once and it re-based.
  EXPECT_GE(replica.stats().full_reloads, 1u);
  EXPECT_EQ(warm.days_operated(), 3u);
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);
}

TEST_F(StandbyTest, CursorAndIncidentsRideTheFramesToTheReplica) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  ASSERT_EQ(replica.poll(), 0u);
  EXPECT_FALSE(replica.has_cursor());

  core::IncidentStore incidents;
  const std::vector<std::string> domains = {"c2.example"};
  const std::vector<std::string> hosts = {"10.0.0.5", "10.0.0.8"};
  incidents.ingest_community(operation_[1].first, domains, hosts);

  run_operation_day(primary, 1);
  api::CheckpointExtras extras;
  extras.has_cursor = true;
  extras.cursor_day = operation_[1].first;
  extras.cursor_offset = 7777;
  extras.incidents = &incidents;
  ASSERT_TRUE(
      primary.save_state_delta(state_path_, policy, &status, extras));
  ASSERT_EQ(replica.poll(), 1u);

  EXPECT_TRUE(replica.has_cursor());
  EXPECT_EQ(replica.cursor_day(), operation_[1].first);
  EXPECT_EQ(replica.cursor_offset(), 7777u);
  core::IncidentStore adopted;
  ASSERT_TRUE(replica.take_incidents(adopted));
  EXPECT_EQ(adopted.size(), incidents.size());
  EXPECT_EQ(adopted.next_id(), incidents.next_id());
  const std::vector<core::Incident> got = adopted.incidents();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].domains.count("c2.example"), 1u);
  EXPECT_EQ(got[0].hosts.count("10.0.0.5"), 1u);

  // The failover payload survives a compaction reload: the fresh chain is
  // empty but the latest known cursor/incidents stay adopted.
  api::CheckpointPolicy compact_now;
  compact_now.full_every = 2;
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state_delta(state_path_, compact_now, &status));
  replica.poll();
  EXPECT_TRUE(replica.has_cursor());
  EXPECT_EQ(replica.cursor_day(), operation_[1].first);
  core::IncidentStore still_there;
  EXPECT_TRUE(replica.take_incidents(still_there));
  EXPECT_EQ(still_there.size(), incidents.size());
}

TEST_F(StandbyTest, TornTailMeansWaitNotReload) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  run_operation_day(primary, 1);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  // The first poll attaches via start(), which absorbs the base plus the
  // existing frame in one chain load (not counted in the return value).
  ASSERT_EQ(replica.poll(), 0u);
  ASSERT_TRUE(replica.started());
  ASSERT_EQ(replica.last_seq(), 1u);

  // An append in progress: the replica waits instead of re-basing.
  const auto chain_path = storage::delta_chain_path(state_path_);
  {
    std::ofstream out(chain_path, std::ios::binary | std::ios::app);
    out.write("EIDDELT1\x00\x01\x00\x00partial", 19);
  }
  EXPECT_EQ(replica.poll(), 0u);
  EXPECT_GE(replica.stats().torn_waits, 1u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);

  // The primary's next append truncates the garbage and lands a real
  // frame; the replica applies it without ever reloading.
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  EXPECT_EQ(replica.poll(), 1u);
  EXPECT_EQ(replica.stats().full_reloads, 0u);
  EXPECT_EQ(warm.days_operated(), 3u);
}

TEST_F(StandbyTest, ReplicaFollowsAPrimaryThatAlwaysSavesFull) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  // full_every 1 never writes a chain: every save is a new base, and the
  // replica must follow each one.
  const api::CheckpointPolicy always_full{1};
  storage::LoadStatus status;
  for (int d = 0; d < 3; ++d) {
    run_operation_day(primary, d);
    primary.set_intel_domains({"ioc-" + std::to_string(d) + ".example"});
    ASSERT_TRUE(primary.save_state_delta(state_path_, always_full, &status));
    EXPECT_EQ(replica.poll(&status), 0u) << "day " << d;
    EXPECT_EQ(warm.intel_domains(), primary.intel_domains()) << "day " << d;
    EXPECT_EQ(warm.days_operated(), primary.days_operated()) << "day " << d;
    // The first load attaches; each later base is a full reload.
    EXPECT_EQ(replica.stats().full_reloads, static_cast<std::size_t>(d));
  }
  EXPECT_FALSE(std::filesystem::exists(storage::delta_chain_path(state_path_)));
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);

  // After takeover the replica extends the base it loaded, as a restarted
  // primary would: its first delta save appends frame 1 to that base.
  ASSERT_TRUE(warm.save_state_delta(state_path_, api::CheckpointPolicy{10},
                                    &status));
  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path_, &report, &status));
  EXPECT_FALSE(report.degraded) << report.detail;
  EXPECT_EQ(report.frames_applied, 1u);
  EXPECT_EQ(resumed.days_operated(), 4u);
}

TEST_F(StandbyTest, BaseThatFailsToLoadIsReadOncePerChange) {
  api::Detector primary = make_pretrained();
  api::Detector warm = make_detector();
  rt::StandbyConfig config;
  config.state_path = state_path_;
  rt::StandbyReplica replica(warm, config);

  const api::CheckpointPolicy policy{10};
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  run_operation_day(primary, 1);
  ASSERT_TRUE(primary.save_state_delta(state_path_, policy, &status));
  ASSERT_EQ(replica.poll(), 0u);
  ASSERT_TRUE(replica.started());
  ASSERT_EQ(warm.days_operated(), 2u);

  // The base is cut short under a started replica: one poll tries the
  // load and keeps the state it has; the next poll sees no change and
  // reads nothing.
  std::filesystem::resize_file(state_path_,
                               std::filesystem::file_size(state_path_) / 2);
  storage::LoadStatus failed;
  EXPECT_EQ(replica.poll(&failed), 0u);
  EXPECT_NE(failed.error, storage::LoadError::None);
  EXPECT_EQ(warm.days_operated(), 2u);
  EXPECT_EQ(replica.last_seq(), 1u);
  storage::LoadStatus idle;
  EXPECT_EQ(replica.poll(&idle), 0u);
  EXPECT_EQ(idle.error, storage::LoadError::None) << idle.detail;
  EXPECT_EQ(replica.stats().full_reloads, 0u);

  // A new base is a change: the replica loads it.
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state(state_path_, &status));
  EXPECT_EQ(replica.poll(&status), 0u);
  EXPECT_EQ(status.error, storage::LoadError::None) << status.detail;
  EXPECT_EQ(replica.stats().full_reloads, 1u);
  EXPECT_EQ(warm.days_operated(), 3u);
  EXPECT_EQ(core::day_report_to_json(run_operation_day(warm, 3)),
            baseline_[3]);
}

TEST_F(StandbyTest, HeartbeatBeacon) {
  const auto hb = rt::heartbeat_path(state_path_);
  EXPECT_EQ(hb, state_path_.string() + ".hb");

  // Missing beacon: infinitely stale — a standby never takes over from a
  // primary that has not started (it has no state to take over anyway).
  EXPECT_TRUE(std::isinf(rt::heartbeat_age_seconds(hb)));

  ASSERT_TRUE(rt::touch_heartbeat(hb));
  const double age = rt::heartbeat_age_seconds(hb);
  EXPECT_GE(age, 0.0);
  EXPECT_LT(age, 60.0);  // just touched (loose: CI clocks can be coarse)

  // Touch refreshes the mtime even with unchanged content.
  ASSERT_TRUE(rt::touch_heartbeat(hb));
  EXPECT_GE(rt::heartbeat_age_seconds(hb), 0.0);
}

}  // namespace
}  // namespace eid
