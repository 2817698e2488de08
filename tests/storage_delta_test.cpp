// Delta-checkpoint chain contract (storage/delta.h + Detector delta API):
//
//   * resuming mid-chain is bit-identical to resuming from a full save —
//     the same day-N+1 DayReport either way;
//   * every storage::LoadError variant is producible against a chain and
//     lands where the recovery contract says: base-file damage fails the
//     load with the matching error, chain damage *degrades* the load to
//     the clean prefix (worst case: the last full checkpoint) and never
//     errors;
//   * a degraded load re-compacts on the next save, so the damage heals.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "core/report_json.h"
#include "features/cc_features.h"
#include "obs/metrics.h"
#include "profile/top_sites.h"
#include "sim/ac.h"
#include "storage/container.h"
#include "storage/delta.h"
#include "storage/encoding.h"
#include "storage/state.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace eid {
namespace {

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 29;
  config.n_hosts = 60;
  config.n_popular = 30;
  config.tail_per_day = 15;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 2.0;
  return config;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void spit(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class DeltaChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-delta-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    scenario_ = std::make_unique<sim::AcScenario>(small_world());
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

    // Train once; every sub-case clones the trained detector by restoring
    // this pretrain checkpoint instead of re-fitting the models.
    pretrain_ = dir_ / "pretrain.bin";
    api::Detector trained = make_detector();
    train(trained);
    storage::LoadStatus status;
    ASSERT_TRUE(trained.save_state(pretrain_, &status)) << status.detail;
  }
  void TearDown() override {
    util::FaultInjector::instance().reset();
    std::filesystem::remove_all(dir_);
  }

  static constexpr int kBootstrapDays = 4;
  static constexpr int kLabeledDays = 6;
  static constexpr int kOperationDays = 3;

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

  /// Day reports of the uninterrupted pretrained run, as JSON.
  std::vector<std::string> baseline_reports() {
    std::vector<std::string> reports;
    api::Detector detector = make_pretrained();
    for (int d = 0; d <= kOperationDays; ++d) {
      reports.push_back(core::day_report_to_json(run_operation_day(detector, d)));
    }
    return reports;
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::AcScenario> scenario_;
  std::filesystem::path pretrain_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> training_;
  std::vector<std::pair<util::Day, std::vector<logs::ConnEvent>>> operation_;
  core::SocSeeds seeds_;
  profile::TopSitesList top_sites_;
};

TEST_F(DeltaChainTest, ResumeFromChainIsBitIdenticalToResumeFromFullSave) {
  const std::vector<std::string> baseline = baseline_reports();
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);

  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 10;  // never compact inside this test
  storage::LoadStatus status;
  for (int d = 0; d < kOperationDays; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status))
        << status.detail;
  }
  // First save was the full rewrite; the remaining two appended frames.
  storage::DeltaChainInfo info;
  ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &status))
      << status.detail;
  EXPECT_EQ(info.frames.size(), 2u);
  EXPECT_FALSE(info.torn_tail);
  // The chain costs O(day), the base O(history): frames must be far
  // smaller than the base checkpoint they extend.
  const auto base_bytes = std::filesystem::file_size(state_path);
  EXPECT_LT(info.file_bytes * 3, base_bytes)
      << "delta frames are not small: chain=" << info.file_bytes
      << " base=" << base_bytes;

  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status))
      << status.detail;
  EXPECT_EQ(report.frames_applied, 2u);
  EXPECT_EQ(report.last_seq, 2u);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(resumed.days_operated(),
            static_cast<std::size_t>(kOperationDays));

  const std::string resumed_report =
      core::day_report_to_json(run_operation_day(resumed, kOperationDays));
  EXPECT_EQ(resumed_report, baseline[kOperationDays]);
}

TEST_F(DeltaChainTest, PolicyCompactsAndPlainSaveInvalidatesChain) {
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 3;
  storage::LoadStatus status;

  // Saves 1 (full), 2, 3 (frames), 4 (compaction: 3 saves since full).
  for (int save = 0; save < 4; ++save) {
    run_operation_day(primary, save % (kOperationDays + 1));
    ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status))
        << "save " << save << ": " << status.detail;
    if (save == 2) EXPECT_TRUE(std::filesystem::exists(chain_path));
  }
  EXPECT_FALSE(std::filesystem::exists(chain_path))
      << "compaction must truncate the chain";

  // Grow a fresh frame, then overwrite via the plain full-save API: the
  // chain refers to a base that no longer exists and must be removed.
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status));
  ASSERT_TRUE(std::filesystem::exists(chain_path));
  ASSERT_TRUE(primary.save_state(state_path, &status)) << status.detail;
  EXPECT_FALSE(std::filesystem::exists(chain_path));

  // full_every <= 1 degrades to a full rewrite every time: no chain.
  api::CheckpointPolicy always_full;
  always_full.full_every = 1;
  run_operation_day(primary, 1);
  ASSERT_TRUE(primary.save_state_delta(state_path, always_full, &status));
  run_operation_day(primary, 2);
  ASSERT_TRUE(primary.save_state_delta(state_path, always_full, &status));
  EXPECT_FALSE(std::filesystem::exists(chain_path));
}

TEST_F(DeltaChainTest, MidChainCorruptionDegradesToCleanPrefixAndHeals) {
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  for (int d = 0; d < kOperationDays; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status));
  }

  // Corrupt a payload byte of the *second* frame and re-stamp the frame
  // CRC so the chain scan accepts it: the damage must be caught one level
  // down, by the container's per-section CRCs, and degrade the load to
  // the frames before it.
  storage::DeltaChainInfo info;
  ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &status));
  ASSERT_EQ(info.frames.size(), 2u);
  std::string bytes = slurp(chain_path);
  const std::uint64_t payload_at = info.frames[1].offset + 12;
  const std::uint64_t size = info.frames[1].payload.size();
  bytes[payload_at + size / 2] ^= 0x40;
  const std::uint32_t fixed_crc =
      util::crc32(std::string_view(bytes).substr(payload_at, size));
  for (int i = 0; i < 4; ++i) {
    bytes[payload_at + size + i] =
        static_cast<char>((fixed_crc >> (8 * i)) & 0xff);
  }
  spit(chain_path, bytes);

  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status))
      << "chain damage must degrade, not fail: " << status.detail;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.frames_applied, 1u);
  EXPECT_GE(report.frames_dropped, 1u);
  // State is as of the clean prefix: base (day 1) + frame 1 (day 2).
  EXPECT_EQ(resumed.days_operated(), 2u);

  // A degraded chain never grows: the next save compacts into a fresh
  // base and the damage is gone.
  run_operation_day(resumed, 2);
  ASSERT_TRUE(resumed.save_state_delta(state_path, policy, &status));
  EXPECT_FALSE(std::filesystem::exists(chain_path));
  api::Detector healed = make_detector();
  ASSERT_TRUE(healed.load_state(state_path, &report, &status));
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(healed.days_operated(), 3u);
}

TEST_F(DeltaChainTest, TornTailIsWaitedOutAndTruncatedByTheNextAppend) {
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status));
  run_operation_day(primary, 1);
  ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status));

  // A crash mid-append leaves a frame cut short after the magic.
  {
    std::ofstream out(chain_path, std::ios::binary | std::ios::app);
    out.write("EIDDELT1\x40\x00\x00\x00half-a-frame", 24);
  }
  storage::DeltaChainInfo info;
  ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &status));
  EXPECT_EQ(info.frames.size(), 1u);
  EXPECT_TRUE(info.torn_tail);

  // Load: the clean prefix applies, the torn tail is reported, the load
  // is NOT degraded (nothing decodable was dropped).
  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status));
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.frames_applied, 1u);

  // The resumed detector keeps appending to the same chain; the append
  // truncates the torn garbage first, so the chain scans clean after.
  run_operation_day(resumed, 1);
  ASSERT_TRUE(resumed.save_state_delta(state_path, policy, &status))
      << status.detail;
  ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &status));
  EXPECT_EQ(info.frames.size(), 2u);
  EXPECT_FALSE(info.torn_tail);
}

TEST_F(DeltaChainTest, EveryLoadErrorVariantAgainstAChain) {
  // Build one good base + 2-frame chain to damage per variant.
  const auto good_state = dir_ / "good.bin";
  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  for (int d = 0; d < kOperationDays; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(good_state, policy, &status));
  }
  const std::string base_bytes = slurp(good_state);
  const std::string chain_bytes =
      slurp(storage::delta_chain_path(good_state));
  ASSERT_FALSE(base_bytes.empty());
  ASSERT_FALSE(chain_bytes.empty());

  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  const auto reset_files = [&] {
    spit(state_path, base_bytes);
    spit(chain_path, chain_bytes);
  };
  const auto expect_load_error = [&](storage::LoadError want,
                                     const char* what) {
    storage::ChainLoadReport report;
    storage::LoadStatus local;
    api::Detector detector = make_detector();
    EXPECT_FALSE(detector.load_state(state_path, &report, &local)) << what;
    EXPECT_EQ(local.error, want)
        << what << ": " << storage::load_error_name(local.error) << " — "
        << local.detail;
  };

  // None — the clean load.
  {
    reset_files();
    storage::LoadStatus local;
    api::Detector detector = make_detector();
    EXPECT_TRUE(detector.load_state(state_path, nullptr, &local));
    EXPECT_EQ(local.error, storage::LoadError::None);
  }
  // FileNotFound — base missing (the chain alone is not a checkpoint).
  {
    reset_files();
    std::filesystem::remove(state_path);
    expect_load_error(storage::LoadError::FileNotFound, "missing base");
  }
  // IoError — the read itself dies under the base file.
  {
    reset_files();
    util::FaultInjector::instance().arm(util::FaultPoint::StorageRead,
                                        util::FaultAction::FailOp);
    expect_load_error(storage::LoadError::IoError, "read failure");
    util::FaultInjector::instance().reset();
  }
  // BadMagic — the base is not an EIDSTOR1 container.
  {
    reset_files();
    std::string bad = base_bytes;
    bad.replace(0, 8, "NOTSTOR!");
    spit(state_path, bad);
    expect_load_error(storage::LoadError::BadMagic, "bad magic");
  }
  // UnsupportedVersion — container from a future format revision.
  {
    reset_files();
    std::string bad = base_bytes;
    bad[8] = '\x7f';  // version varint -> 127
    spit(state_path, bad);
    expect_load_error(storage::LoadError::UnsupportedVersion,
                      "future version");
  }
  // Truncated — base ends mid-structure.
  {
    reset_files();
    spit(state_path, base_bytes.substr(0, base_bytes.size() / 2));
    expect_load_error(storage::LoadError::Truncated, "truncated base");
  }
  // ChecksumMismatch — media corruption inside a base section payload.
  {
    reset_files();
    std::string bad = base_bytes;
    bad[bad.size() / 2] ^= 0x01;
    spit(state_path, bad);
    expect_load_error(storage::LoadError::ChecksumMismatch, "bit flip");
  }
  // MissingSection — a CRC-clean frame payload that is a valid container
  // but not a delta frame (no DeltaHeader section).
  {
    storage::LoadStatus local;
    EXPECT_FALSE(storage::decode_delta_frame(base_bytes, &local));
    EXPECT_EQ(local.error, storage::LoadError::MissingSection);
  }
  // Malformed — structurally decodable, semantically invalid: training
  // rows 3 wide where this build trains on features::kCcFeatureCount. The
  // width is checked once, at decode: in the base the load fails, in a
  // frame it degrades the load at that frame.
  storage::TrainingRows narrow;
  narrow.cc_cols = 3;
  narrow.cc = {1.0, 2.0, 3.0};
  narrow.cc_labels = {1.0};
  const auto with_narrow_rows = [&](std::string_view container) {
    const auto reader = storage::ContainerReader::parse(container);
    EXPECT_TRUE(reader.has_value());
    storage::ContainerWriter writer;
    for (const storage::Section& section : reader->sections()) {
      if (section.id == static_cast<std::uint64_t>(
                            storage::SectionId::TrainingRows)) {
        continue;
      }
      writer.add_section(static_cast<storage::SectionId>(section.id),
                         std::string(section.payload));
    }
    writer.add_section(storage::SectionId::TrainingRows,
                       storage::detail::encode_training_rows_section(narrow));
    return writer.encode();
  };
  {
    reset_files();
    spit(state_path, with_narrow_rows(base_bytes));
    expect_load_error(storage::LoadError::Malformed, "3-wide rows in the base");
  }
  {
    reset_files();
    storage::DeltaChainInfo info;
    storage::LoadStatus local;
    ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &local));
    ASSERT_EQ(info.frames.size(), 2u);
    std::filesystem::remove(chain_path);
    ASSERT_TRUE(storage::append_delta_frame(chain_path, info.frames[0].payload));
    ASSERT_TRUE(storage::append_delta_frame(
        chain_path, with_narrow_rows(info.frames[1].payload)));
    storage::ChainLoadReport report;
    api::Detector detector = make_detector();
    ASSERT_TRUE(detector.load_state(state_path, &report, &local))
        << local.detail;
    EXPECT_TRUE(report.degraded);
    EXPECT_EQ(report.frames_applied, 1u);
    EXPECT_EQ(report.frames_dropped, 1u);
    EXPECT_NE(report.detail.find("3 wide"), std::string::npos)
        << report.detail;
    EXPECT_EQ(detector.days_operated(), 2u);
    EXPECT_EQ(detector.pipeline().cc_training_rows(), 0u);
  }
}

TEST_F(DeltaChainTest, FrameRoundTripCarriesEverySection) {
  api::Detector trained = make_pretrained();
  const std::vector<std::string> new_domains = {"evil.example",
                                                "rare.example"};
  const std::vector<std::string> intel = {"ioc-a.example", "ioc-b.example"};
  profile::TopSitesList sites;
  sites.add("alexa-1.example");
  core::IncidentStore incidents;
  const std::vector<std::string> inc_domains = {"evil.example"};
  const std::vector<std::string> inc_hosts = {"10.0.0.7"};
  incidents.ingest_community(400, inc_domains, inc_hosts);

  storage::TrainingRows rows;
  rows.cc_cols = features::kCcFeatureCount;
  for (std::size_t i = 0; i < 2 * features::kCcFeatureCount; ++i) {
    rows.cc.push_back(0.5 + static_cast<double>(i));
  }
  rows.cc_labels = {1.0, 0.0};

  storage::DeltaInputs inputs;
  inputs.base_crc = 0xdeadbeef;
  inputs.seq = 7;
  inputs.day = 412;
  inputs.days_ingested = 31;
  inputs.new_domains = &new_domains;
  storage::DeltaUaEntryView ua;
  ua.ua = "curl/8.0";
  ua.hosts = {"10.0.0.7", "10.0.0.9"};
  inputs.ua_entries.push_back(ua);
  storage::DeltaUaEntryView popular_ua;
  popular_ua.ua = "Mozilla/5.0";
  popular_ua.popular = true;
  inputs.ua_entries.push_back(popular_ua);
  const core::PipelineConfig config = trained.pipeline().config();
  inputs.config = &config;
  inputs.cc_model = &trained.pipeline().cc_model();
  inputs.sim_model = &trained.pipeline().sim_model();
  inputs.training.models_ready = true;
  inputs.counters.days_operated = 5;
  inputs.training_rows = &rows;
  inputs.intel_domains = &intel;
  inputs.top_sites = &sites;
  inputs.has_cursor = true;
  inputs.cursor_day = 412;
  inputs.cursor_offset = 123456;
  inputs.incidents = &incidents;

  const std::string payload = storage::encode_delta_frame(inputs);
  storage::LoadStatus status;
  std::optional<storage::DeltaFrame> frame =
      storage::decode_delta_frame(payload, &status);
  ASSERT_TRUE(frame) << status.detail;
  EXPECT_EQ(frame->base_crc, 0xdeadbeefu);
  EXPECT_EQ(frame->seq, 7u);
  EXPECT_EQ(frame->day, 412);
  EXPECT_EQ(frame->days_ingested, 31u);
  EXPECT_EQ(frame->new_domains, new_domains);
  // Entries come back sorted by the frame-local string table, not in
  // input order; find each by name.
  ASSERT_EQ(frame->ua_entries.size(), 2u);
  const auto find_ua = [&](std::string_view name)
      -> const storage::DeltaFrame::UaEntry* {
    for (const auto& entry : frame->ua_entries) {
      if (entry.ua == name) return &entry;
    }
    return nullptr;
  };
  const auto* curl = find_ua("curl/8.0");
  ASSERT_NE(curl, nullptr);
  EXPECT_FALSE(curl->popular);
  EXPECT_EQ(curl->hosts, (std::vector<std::string>{"10.0.0.7", "10.0.0.9"}));
  const auto* mozilla = find_ua("Mozilla/5.0");
  ASSERT_NE(mozilla, nullptr);
  EXPECT_TRUE(mozilla->popular);
  EXPECT_TRUE(mozilla->hosts.empty());
  EXPECT_TRUE(frame->training.models_ready);
  EXPECT_EQ(frame->counters.days_operated, 5u);
  EXPECT_EQ(frame->training_rows.cc_cols, features::kCcFeatureCount);
  EXPECT_EQ(frame->training_rows.cc, rows.cc);
  EXPECT_EQ(frame->training_rows.cc_labels, rows.cc_labels);
  EXPECT_TRUE(frame->has_intel);
  EXPECT_EQ(frame->intel_domains, intel);
  EXPECT_TRUE(frame->has_top_sites);
  EXPECT_EQ(frame->top_sites, std::vector<std::string>{"alexa-1.example"});
  EXPECT_TRUE(frame->has_cursor);
  EXPECT_EQ(frame->cursor_day, 412);
  EXPECT_EQ(frame->cursor_offset, 123456u);
  ASSERT_TRUE(frame->has_incidents);
  ASSERT_EQ(frame->incidents.size(), 1u);
  EXPECT_EQ(frame->incidents[0].domains.count("evil.example"), 1u);
  EXPECT_EQ(frame->incidents[0].hosts.count("10.0.0.7"), 1u);
  EXPECT_EQ(frame->incidents_next_id, incidents.next_id());

  // Malformed guard: seq 0 never encodes into a decodable frame.
  inputs.seq = 0;
  std::optional<storage::DeltaFrame> zero =
      storage::decode_delta_frame(storage::encode_delta_frame(inputs), &status);
  EXPECT_FALSE(zero);
  EXPECT_EQ(status.error, storage::LoadError::Malformed);
}

TEST_F(DeltaChainTest, UaEntryListingAHostTwiceRoundTripsWithItOnce) {
  api::Detector trained = make_pretrained();
  const std::vector<std::string> new_domains;
  storage::DeltaInputs inputs;
  inputs.seq = 1;
  inputs.new_domains = &new_domains;
  storage::DeltaUaEntryView ua;
  ua.ua = "curl/8.0";
  ua.hosts = {"10.0.0.9", "10.0.0.7", "10.0.0.9"};
  inputs.ua_entries.push_back(ua);
  const core::PipelineConfig config = trained.pipeline().config();
  inputs.config = &config;
  inputs.cc_model = &trained.pipeline().cc_model();
  inputs.sim_model = &trained.pipeline().sim_model();

  storage::LoadStatus status;
  const std::optional<storage::DeltaFrame> frame =
      storage::decode_delta_frame(storage::encode_delta_frame(inputs), &status);
  ASSERT_TRUE(frame) << status.detail;
  ASSERT_EQ(frame->ua_entries.size(), 1u);
  EXPECT_EQ(frame->ua_entries[0].hosts,
            (std::vector<std::string>{"10.0.0.7", "10.0.0.9"}));
}

TEST_F(DeltaChainTest, LoadStateCountsOneStateLoad) {
  obs::Counter& loads = obs::metrics().counter("eid_state_loads_total");
  obs::Counter& bytes = obs::metrics().counter("eid_state_loaded_bytes_total");
  const std::uint64_t loads_before = loads.value();
  const std::uint64_t bytes_before = bytes.value();
  api::Detector detector = make_detector();
  storage::LoadStatus status;
  ASSERT_TRUE(detector.load_state(pretrain_, &status)) << status.detail;
  EXPECT_EQ(loads.value() - loads_before, 1u);
  EXPECT_EQ(bytes.value() - bytes_before,
            std::filesystem::file_size(pretrain_));
}

TEST_F(DeltaChainTest, FailedAppendFallsBackToFullRewrite) {
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::Detector primary = make_pretrained();
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  run_operation_day(primary, 0);
  ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status));

  // The append dies mid-write (power loss): the save fails and the chain
  // holds at worst a torn tail.
  run_operation_day(primary, 1);
  util::FaultInjector::instance().arm(util::FaultPoint::StorageAppend,
                                      util::FaultAction::TornWrite,
                                      /*skip=*/0, /*byte=*/10);
  EXPECT_FALSE(primary.save_state_delta(state_path, policy, &status));
  EXPECT_GE(util::FaultInjector::instance().triggered(
                util::FaultPoint::StorageAppend),
            1u);
  util::FaultInjector::instance().reset();

  // The tracker went cold: the next save is a full compaction, after
  // which a fresh load sees everything with no chain at all.
  ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status))
      << status.detail;
  EXPECT_FALSE(std::filesystem::exists(chain_path));
  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status));
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.frames_applied, 0u);
  EXPECT_EQ(resumed.days_operated(), 2u);
}

TEST_F(DeltaChainTest, PlainSaveRemovesAnotherDetectorsChain) {
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  storage::LoadStatus status;
  api::Detector writer = make_pretrained();
  run_operation_day(writer, 0);
  ASSERT_TRUE(writer.save_state_delta(state_path, policy, &status));
  run_operation_day(writer, 1);
  ASSERT_TRUE(writer.save_state_delta(state_path, policy, &status));
  ASSERT_TRUE(std::filesystem::exists(chain_path));

  // A detector that never tracked this path's chain overwrites the base:
  // the chain goes with it, so the next load is clean.
  api::Detector other = make_detector();
  other.set_intel_domains({"other-ioc.example"});
  ASSERT_TRUE(other.save_state(state_path, &status)) << status.detail;
  EXPECT_FALSE(std::filesystem::exists(chain_path));

  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status));
  EXPECT_FALSE(report.degraded) << report.detail;
  EXPECT_EQ(report.frames_applied, 0u);
  EXPECT_EQ(resumed.intel_domains(),
            std::vector<std::string>{"other-ioc.example"});
  EXPECT_EQ(resumed.days_operated(), 0u);
}

TEST_F(DeltaChainTest, BaseBindingSeesPayloadBytes) {
  const auto path_a = dir_ / "a.bin";
  const auto path_b = dir_ / "b.bin";
  storage::LoadStatus status;
  api::Detector a = make_detector();
  a.set_intel_domains({"a.example"});
  ASSERT_TRUE(a.save_state(path_a, &status)) << status.detail;
  api::Detector b = make_detector();
  b.set_intel_domains({"b.example"});
  ASSERT_TRUE(b.save_state(path_b, &status)) << status.detail;

  // Same section ids and sizes, one payload byte apart: a CRC-32 of the
  // whole file cannot tell them apart, the binding must.
  const std::string bytes_a = slurp(path_a);
  const std::string bytes_b = slurp(path_b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  ASSERT_NE(bytes_a, bytes_b);
  EXPECT_EQ(util::crc32(bytes_a), util::crc32(bytes_b));
  EXPECT_NE(storage::base_binding(bytes_a), storage::base_binding(bytes_b));

  // A chain written against base A, copied back beside the same-shape
  // base B, must not apply.
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::CheckpointPolicy policy;
  policy.full_every = 10;
  ASSERT_TRUE(a.save_state_delta(state_path, policy, &status));
  a.set_intel_domains({"c.example"});
  ASSERT_TRUE(a.save_state_delta(state_path, policy, &status));
  const std::string chain_bytes = slurp(chain_path);
  ASSERT_FALSE(chain_bytes.empty());
  ASSERT_TRUE(b.save_state(state_path, &status)) << status.detail;
  spit(chain_path, chain_bytes);

  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status));
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.frames_applied, 0u);
  EXPECT_EQ(report.frames_dropped, 1u);
  EXPECT_NE(report.detail.find("different base"), std::string::npos)
      << report.detail;
  EXPECT_EQ(resumed.intel_domains(), std::vector<std::string>{"b.example"});
}

TEST_F(DeltaChainTest, ChainOnTheLegacyBindingLoadsAndIsCompacted) {
  const std::vector<std::string> baseline = baseline_reports();
  const auto state_path = dir_ / "state.bin";
  const auto chain_path = storage::delta_chain_path(state_path);
  api::Detector primary = make_pretrained();
  const api::CheckpointPolicy policy{10};
  storage::LoadStatus status;
  for (int d = 0; d < kOperationDays; ++d) {
    run_operation_day(primary, d);
    ASSERT_TRUE(primary.save_state_delta(state_path, policy, &status))
        << status.detail;
  }

  // Rebind every frame the way older chains were bound: the CRC-32 of
  // the whole base file, in the first four bytes of the delta header.
  const std::uint32_t legacy = util::crc32(slurp(state_path));
  storage::DeltaChainInfo info;
  ASSERT_TRUE(storage::read_delta_chain(chain_path, info, &status));
  ASSERT_EQ(info.frames.size(), 2u);
  std::filesystem::remove(chain_path);
  for (const storage::DeltaChainInfo::Frame& frame : info.frames) {
    const auto reader = storage::ContainerReader::parse(frame.payload);
    ASSERT_TRUE(reader.has_value());
    storage::ContainerWriter writer;
    for (const storage::Section& section : reader->sections()) {
      std::string payload(section.payload);
      if (section.id ==
          static_cast<std::uint64_t>(storage::SectionId::DeltaHeader)) {
        for (int i = 0; i < 4; ++i) {
          payload[i] = static_cast<char>((legacy >> (8 * i)) & 0xffu);
        }
      }
      writer.add_section(static_cast<storage::SectionId>(section.id),
                         std::move(payload));
    }
    ASSERT_TRUE(storage::append_delta_frame(chain_path, writer.encode()));
  }

  // The upgrade keeps the chain's history...
  storage::ChainLoadReport report;
  api::Detector resumed = make_detector();
  ASSERT_TRUE(resumed.load_state(state_path, &report, &status))
      << status.detail;
  EXPECT_FALSE(report.degraded) << report.detail;
  EXPECT_TRUE(report.legacy_binding);
  EXPECT_EQ(report.frames_applied, 2u);
  EXPECT_EQ(resumed.days_operated(),
            static_cast<std::size_t>(kOperationDays));
  EXPECT_EQ(
      core::day_report_to_json(run_operation_day(resumed, kOperationDays)),
      baseline[kOperationDays]);

  // ...and the next delta save compacts it instead of appending to it.
  ASSERT_TRUE(resumed.save_state_delta(state_path, policy, &status))
      << status.detail;
  EXPECT_FALSE(std::filesystem::exists(chain_path));
  storage::ChainLoadReport after;
  api::Detector reloaded = make_detector();
  ASSERT_TRUE(reloaded.load_state(state_path, &after, &status));
  EXPECT_FALSE(after.legacy_binding);
  EXPECT_EQ(after.frames_applied, 0u);
  EXPECT_EQ(reloaded.days_operated(),
            static_cast<std::size_t>(kOperationDays + 1));
}

}  // namespace
}  // namespace eid
