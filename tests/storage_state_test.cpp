// Round-trip and corruption coverage for the storage subsystem: every
// DetectorState component survives a binary round trip bit-exactly, and
// every corruption mode — including a file in some other format — fails
// cleanly with the right LoadError.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "storage/container.h"
#include "storage/encoding.h"
#include "storage/state.h"
#include "util/binary.h"
#include "util/rng.h"

namespace eid::storage {
namespace {

class StorageStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eid-storage-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

std::string read_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::filesystem::path& p, std::string_view bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- Domain history ----

TEST_F(StorageStateTest, DomainHistoryRoundTripEmpty) {
  profile::DomainHistory history;
  ASSERT_TRUE(storage::save_domain_history(history, path("d.bin")));
  LoadStatus status;
  const auto loaded = storage::load_domain_history(path("d.bin"), &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->days_ingested(), 0u);
}

TEST_F(StorageStateTest, DomainHistoryRoundTripUnicodeAndLongStrings) {
  profile::DomainHistory history;
  const std::string long_domain(8000, 'x');
  history.update({"xn--bcher-kva.example", "日本語ドメイン.example",
                  "emoji-\xF0\x9F\x92\xBB.example", long_domain, "a.com"});
  ASSERT_TRUE(storage::save_domain_history(history, path("d.bin")));
  const auto loaded = storage::load_domain_history(path("d.bin"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 5u);
  EXPECT_EQ(loaded->days_ingested(), 1u);
  EXPECT_FALSE(loaded->is_new("日本語ドメイン.example"));
  EXPECT_FALSE(loaded->is_new(long_domain));
  EXPECT_TRUE(loaded->is_new("other.example"));
}

TEST_F(StorageStateTest, DomainHistoryRoundTripLargeSet) {
  profile::DomainHistory history;
  std::vector<std::string> domains;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    domains.push_back("host-" + std::to_string(rng.next_u64()) + ".example-" +
                      std::to_string(i % 97) + ".com");
  }
  history.update(domains);
  ASSERT_TRUE(storage::save_domain_history(history, path("d.bin")));
  const auto loaded = storage::load_domain_history(path("d.bin"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), history.size());
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(loaded->is_new(domains[static_cast<std::size_t>(i) * 97]));
  }
}

TEST_F(StorageStateTest, DailyRestartContinuesAccumulating) {
  // Day 1 process: bootstrap, save.
  {
    profile::DomainHistory domains;
    domains.update({"seen-day1.com"});
    profile::UaHistory uas(2);
    uas.observe("UA", "h1");
    ASSERT_TRUE(storage::save_domain_history(domains, path("d.bin")));
    ASSERT_TRUE(storage::save_ua_history(uas, path("u.bin")));
  }
  // Day 2 process: load, verify continuity, extend, save again.
  {
    auto domains = storage::load_domain_history(path("d.bin"));
    auto uas = storage::load_ua_history(path("u.bin"));
    ASSERT_TRUE(domains && uas);
    EXPECT_FALSE(domains->is_new("seen-day1.com"));
    EXPECT_TRUE(uas->is_rare("UA"));
    domains->update({"seen-day2.com"});
    uas->observe("UA", "h2");  // second distinct host crosses the threshold
    EXPECT_FALSE(uas->is_rare("UA"));
    ASSERT_TRUE(storage::save_domain_history(*domains, path("d.bin")));
    ASSERT_TRUE(storage::save_ua_history(*uas, path("u.bin")));
  }
  // Day 3 process: both days visible.
  const auto domains = storage::load_domain_history(path("d.bin"));
  const auto uas = storage::load_ua_history(path("u.bin"));
  ASSERT_TRUE(domains && uas);
  EXPECT_FALSE(domains->is_new("seen-day1.com"));
  EXPECT_FALSE(domains->is_new("seen-day2.com"));
  EXPECT_EQ(domains->days_ingested(), 2u);
  EXPECT_FALSE(uas->is_rare("UA"));
}

// ---- UA history ----

TEST_F(StorageStateTest, UaHistoryRoundTripPreservesRarityAndHosts) {
  profile::UaHistory history(3);
  history.observe("Popular/1.0", "h1");
  history.observe("Popular/1.0", "h2");
  history.observe("Popular/1.0", "h3");  // crosses the threshold
  history.observe("Rare/2.0", "h1");
  history.observe("Rare/2.0", "h9");
  history.observe("Unicode/\xE2\x98\x83", "h1");
  ASSERT_TRUE(storage::save_ua_history(history, path("u.bin")));
  LoadStatus status;
  const auto loaded = storage::load_ua_history(path("u.bin"), &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;
  EXPECT_EQ(loaded->rare_threshold(), 3u);
  EXPECT_EQ(loaded->distinct_uas(), 3u);
  EXPECT_FALSE(loaded->is_rare("Popular/1.0"));
  EXPECT_TRUE(loaded->is_rare("Rare/2.0"));
  EXPECT_EQ(loaded->host_count("Rare/2.0"), 2u);
  EXPECT_TRUE(loaded->is_rare("Unicode/\xE2\x98\x83"));
  // Restored histories keep accumulating with the same semantics.
  auto continued = *loaded;
  continued.observe("Rare/2.0", "h10");
  EXPECT_FALSE(continued.is_rare("Rare/2.0"));
}

TEST_F(StorageStateTest, UaHistoryCarriesTabsAndNewlines) {
  profile::UaHistory history(5);
  history.observe("Weird\tUA\nwith\rcontrols", "h1");
  ASSERT_TRUE(storage::save_ua_history(history, path("u.bin")));
  const auto loaded = storage::load_ua_history(path("u.bin"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->host_count("Weird\tUA\nwith\rcontrols"), 1u);
}

TEST_F(StorageStateTest, OverThresholdRareEntryNormalizesToPopular) {
  // A restored rare entry listing >= threshold hosts becomes popular — the
  // invariant observe() enforces — so it survives a save/load round trip
  // (the decoder rejects a rare entry at or above the threshold).
  profile::UaHistory history(3);
  const std::vector<std::string_view> hosts = {"h1", "h2", "h3", "h4"};
  history.restore_entry("Big/1.0", false, hosts);
  EXPECT_FALSE(history.is_rare("Big/1.0"));
  EXPECT_EQ(history.host_count("Big/1.0"), 3u);  // saturated at threshold
  ASSERT_TRUE(storage::save_ua_history(history, path("u.bin")));
  LoadStatus status;
  const auto loaded = storage::load_ua_history(path("u.bin"), &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;
  EXPECT_FALSE(loaded->is_rare("Big/1.0"));
}

TEST_F(StorageStateTest, UaHistoryRoundTripLargeSharedHosts) {
  profile::UaHistory history(10);
  std::vector<std::string> hosts;
  for (int h = 0; h < 500; ++h) hosts.push_back("ws-" + std::to_string(h));
  util::Rng rng(3);
  for (int u = 0; u < 3000; ++u) {
    const std::string ua = "UA-" + std::to_string(u);
    const std::size_t n = 1 + rng.uniform(9);
    for (std::size_t i = 0; i < n; ++i) {
      history.observe(ua, hosts[rng.uniform(hosts.size())]);
    }
  }
  ASSERT_TRUE(storage::save_ua_history(history, path("u.bin")));
  const auto loaded = storage::load_ua_history(path("u.bin"));
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->distinct_uas(), history.distinct_uas());
  history.for_each_entry([&](const std::string& ua, bool popular,
                             std::span<const std::string_view> hosts_view) {
    EXPECT_EQ(loaded->is_rare(ua), !popular) << ua;
    EXPECT_EQ(loaded->host_count(ua),
              popular ? 10u : hosts_view.size()) << ua;
  });
}

// ---- Models ----

core::ScoredModel exotic_model() {
  core::ScoredModel model;
  model.threshold = 0.4375;
  model.score_offset = -1e-300;
  model.score_scale = 3.14159265358979;
  model.model.intercept = -0.0;
  model.model.weights = {1.0 / 3.0, -2e17, 5e-324};
  model.model.std_errors = {0.1, 0.2, 0.3};
  model.model.t_stats = {3.3, -2.2, 0.0};
  model.model.intercept_std_error = 0.5;
  model.model.r_squared = 0.75;
  model.model.residual_variance = 1e-9;
  model.model.n_samples = 12345;
  model.scaler.restore({0.0, -1.5, 2.25}, {1.0, 1.5, 2.25});
  return model;
}

TEST_F(StorageStateTest, ScoredModelRoundTripsBitExactly) {
  const core::ScoredModel model = exotic_model();
  ASSERT_TRUE(storage::save_scored_model(model, path("m.bin")));
  const auto loaded = storage::load_scored_model(path("m.bin"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->threshold),
            std::bit_cast<std::uint64_t>(model.threshold));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->score_offset),
            std::bit_cast<std::uint64_t>(model.score_offset));
  ASSERT_EQ(loaded->model.weights.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->model.weights[i]),
              std::bit_cast<std::uint64_t>(model.model.weights[i]));
  }
  EXPECT_EQ(loaded->model.n_samples, 12345u);
  EXPECT_EQ(loaded->scaler.mins(), model.scaler.mins());
  EXPECT_EQ(loaded->scaler.maxs(), model.scaler.maxs());
}

// ---- Full detector state ----

DetectorState sample_state() {
  DetectorState state;
  state.config.popularity_threshold = 7;
  state.config.ua_rare_threshold = 4;
  state.config.cc_threshold = 0.44;
  state.config.sim_threshold = 0.65;
  state.config.periodicity.bin_width_seconds = 12.5;
  state.config.periodicity.jeffrey_threshold = 0.055;
  state.config.periodicity.min_intervals = 5;
  state.config.periodicity.metric = timing::HistogramMetric::L1;
  state.config.bp_max_iterations = 8;
  state.config.parallelism.threads = 3;
  state.domain_history.update({"a.com", "b.net", "c.org"});
  state.domain_history.update({"d.io"});
  state.ua_history = profile::UaHistory(4);
  state.ua_history.observe("UA-1", "h1");
  state.ua_history.observe("UA-1", "h2");
  state.has_top_sites = true;
  state.top_sites.add("google.com");
  state.top_sites.add("b.net");  // overlaps the history on purpose
  state.cc_model = exotic_model();
  state.sim_model = exotic_model();
  state.sim_model.threshold = 0.33;
  state.training.whois_age_sum = 1234.5;
  state.training.whois_validity_sum = 6789.25;
  state.training.whois_samples = 42;
  state.training.models_ready = true;
  state.intel_domains = {"evil.example", "c2.example"};
  state.counters.days_operated = 17;
  return state;
}

TEST_F(StorageStateTest, DetectorStateFullRoundTrip) {
  const DetectorState state = sample_state();
  ASSERT_TRUE(storage::save_detector_state(state, path("s.bin")));
  LoadStatus status;
  const auto loaded = storage::load_detector_state(path("s.bin"), &status);
  ASSERT_TRUE(loaded.has_value()) << status.detail;

  EXPECT_EQ(loaded->config.popularity_threshold, 7u);
  EXPECT_EQ(loaded->config.ua_rare_threshold, 4u);
  EXPECT_EQ(loaded->config.periodicity.metric, timing::HistogramMetric::L1);
  EXPECT_EQ(loaded->config.periodicity.min_intervals, 5u);
  EXPECT_EQ(loaded->config.parallelism.threads, 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->config.cc_threshold),
            std::bit_cast<std::uint64_t>(0.44));

  EXPECT_EQ(loaded->domain_history.size(), 4u);
  EXPECT_EQ(loaded->domain_history.days_ingested(), 2u);
  EXPECT_FALSE(loaded->domain_history.is_new("d.io"));

  EXPECT_EQ(loaded->ua_history.rare_threshold(), 4u);
  EXPECT_EQ(loaded->ua_history.host_count("UA-1"), 2u);

  EXPECT_TRUE(loaded->has_top_sites);
  EXPECT_EQ(loaded->top_sites.size(), 2u);
  EXPECT_TRUE(loaded->top_sites.contains("google.com"));

  EXPECT_EQ(loaded->training.whois_samples, 42u);
  EXPECT_TRUE(loaded->training.models_ready);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->training.whois_age_sum),
            std::bit_cast<std::uint64_t>(1234.5));

  EXPECT_EQ(loaded->intel_domains,
            (std::vector<std::string>{"c2.example", "evil.example"}));
  EXPECT_EQ(loaded->counters.days_operated, 17u);
}

// The config section codec on its own: every strict prefix is Truncated,
// non-finite thresholds are Malformed, and the reserved slot after the
// thread count (once a shard count) must be >= 1 but is otherwise ignored,
// so sections that carry any old shard count still decode.
TEST(ConfigSectionCodecTest, TruncationNonFiniteAndReservedSlot) {
  using detail::decode_config_section;
  using detail::encode_config_section;
  core::PipelineConfig config;
  config.parallelism.threads = 3;
  config.cc_threshold = 0.44;
  const std::string encoded = encode_config_section(config);

  for (std::size_t n = 0; n < encoded.size(); ++n) {
    core::PipelineConfig decoded;
    LoadStatus status;
    EXPECT_FALSE(decode_config_section(encoded.substr(0, n), decoded, &status));
    EXPECT_EQ(status.error, LoadError::Truncated) << "prefix " << n;
  }

  // The reserved slot is the last varint, written as the single byte 1.
  ASSERT_EQ(encoded.back(), '\x01');
  const auto with_slot = [&](char value) {
    std::string bytes = encoded;
    bytes.back() = value;
    return bytes;
  };
  {
    core::PipelineConfig decoded;
    LoadStatus status;
    EXPECT_FALSE(decode_config_section(with_slot('\x00'), decoded, &status));
    EXPECT_EQ(status.error, LoadError::Malformed);
  }
  {
    core::PipelineConfig decoded;
    LoadStatus status;
    ASSERT_TRUE(decode_config_section(with_slot('\x04'), decoded, &status))
        << status.detail;
    EXPECT_EQ(decoded.parallelism.threads, 3u);
    EXPECT_EQ(decoded.cc_threshold, 0.44);
  }

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<core::PipelineConfig> configs(4);
    configs[0].cc_threshold = bad;
    configs[1].sim_threshold = bad;
    configs[2].periodicity.bin_width_seconds = bad;
    configs[3].periodicity.jeffrey_threshold = bad;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE("field " + std::to_string(i) + " = " + std::to_string(bad));
      core::PipelineConfig decoded;
      LoadStatus status;
      EXPECT_FALSE(decode_config_section(encode_config_section(configs[i]),
                                         decoded, &status));
      EXPECT_EQ(status.error, LoadError::Malformed);
    }
  }
}

TEST_F(StorageStateTest, EncodeIsIdenticalForAnyThreadCount) {
  const DetectorState state = sample_state();
  const std::string one = encode_detector_state(state, 1);
  const std::string eight = encode_detector_state(state, 8);
  EXPECT_EQ(one, eight);
}

TEST_F(StorageStateTest, StateWithoutOptionalSections) {
  DetectorState state;
  state.domain_history.update({"only.example"});
  ASSERT_TRUE(storage::save_detector_state(state, path("s.bin")));
  const auto loaded = storage::load_detector_state(path("s.bin"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->has_top_sites);
  EXPECT_TRUE(loaded->intel_domains.empty());
  EXPECT_FALSE(loaded->training.models_ready);
}

// ---- Corruption ----

TEST_F(StorageStateTest, BitFlipFailsWithChecksumMismatch) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  std::string bytes = read_bytes(path("s.bin"));
  // Locate the string-table payload via a clean parse, then flip one bit
  // squarely inside it (a flip in a section header would instead surface
  // as Truncated/Malformed).
  const auto reader = ContainerReader::parse(bytes);
  ASSERT_TRUE(reader.has_value());
  const Section* strings = reader->find(SectionId::StringTable);
  ASSERT_NE(strings, nullptr);
  const std::size_t offset =
      static_cast<std::size_t>(strings->payload.data() - bytes.data()) +
      strings->payload.size() / 2;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
  write_bytes(path("s.bin"), bytes);
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("s.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::ChecksumMismatch) << status.detail;
}

TEST_F(StorageStateTest, TruncationFailsCleanly) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  const std::string bytes = read_bytes(path("s.bin"));
  // Every strict prefix must fail with Truncated (or BadMagic for very
  // short prefixes) — never crash, never return a value.
  for (const double frac : {0.05, 0.3, 0.6, 0.95}) {
    const std::size_t cut = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * frac);
    write_bytes(path("cut.bin"), std::string_view(bytes).substr(0, cut));
    LoadStatus status;
    EXPECT_FALSE(storage::load_detector_state(path("cut.bin"), &status).has_value());
    EXPECT_TRUE(status.error == LoadError::Truncated ||
                status.error == LoadError::BadMagic)
        << "cut at " << cut << ": " << load_error_name(status.error);
  }
  // Cutting the final CRC byte specifically reports Truncated.
  write_bytes(path("cut.bin"),
              std::string_view(bytes).substr(0, bytes.size() - 1));
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("cut.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::Truncated);
}

TEST_F(StorageStateTest, TrailingGarbageIsMalformed) {
  ASSERT_TRUE(storage::save_detector_state(sample_state(), path("s.bin")));
  std::string bytes = read_bytes(path("s.bin"));
  bytes += "extra";
  write_bytes(path("s.bin"), bytes);
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("s.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::Malformed);
}

#ifdef EID_STATE_TOOL
/// Exit status of `state_tool <args>` (-1 when it did not exit normally,
/// e.g. crashed on a signal).
int state_tool_status(const std::string& args) {
  const std::string command =
      std::string(EID_STATE_TOOL) + " " + args + " >/dev/null 2>&1";
  const int raw = std::system(command.c_str());
  return raw != -1 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}
#endif

TEST_F(StorageStateTest, BadMagicAndMissingFileReported) {
  write_bytes(path("junk.bin"), "NOTASTATEFILE....");
  // Files in the line-oriented text formats older tools wrote: only the
  // binary container loads.
  write_bytes(path("d.txt"), "eid-domain-history 1\ndays 2\na.com\n");
  write_bytes(path("u.txt"), "eid-ua-history 1\nthreshold 3\nP\tCommon/1.0\n");
  write_bytes(path("m.txt"),
              "eid-scored-model 1\nthreshold 0x1p-1\nscore 0x0p+0 0x1p+0\n");
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("junk.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::BadMagic);
  for (const char* text : {"d.txt", "u.txt", "m.txt"}) {
    SCOPED_TRACE(text);
    status = {};
    EXPECT_FALSE(storage::load_domain_history(path(text), &status).has_value());
    EXPECT_EQ(status.error, LoadError::BadMagic);
    status = {};
    EXPECT_FALSE(storage::load_ua_history(path(text), &status).has_value());
    EXPECT_EQ(status.error, LoadError::BadMagic);
    status = {};
    EXPECT_FALSE(storage::load_scored_model(path(text), &status).has_value());
    EXPECT_EQ(status.error, LoadError::BadMagic);
#ifdef EID_STATE_TOOL
    const std::string file = path(text).string();
    for (const char* command : {"inspect ", "verify ", "verify --deep "}) {
      SCOPED_TRACE(command);
      // Exit 2 is a reported load failure; a crash is not an exit at all.
      EXPECT_EQ(state_tool_status(command + file), 2);
    }
#endif
  }
  EXPECT_FALSE(storage::load_detector_state(path("missing.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::FileNotFound);
  EXPECT_FALSE(storage::load_domain_history(path("missing.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::FileNotFound);
  EXPECT_FALSE(storage::load_ua_history(path("missing.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::FileNotFound);
  EXPECT_FALSE(storage::load_scored_model(path("missing.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::FileNotFound);
}

TEST_F(StorageStateTest, UnsupportedVersionReported) {
  util::ByteWriter out;
  out.bytes(kContainerMagic);
  out.varint(99);  // future format version
  out.varint(0);
  write_bytes(path("v99.bin"), out.data());
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("v99.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::UnsupportedVersion);
}

TEST_F(StorageStateTest, MissingSectionReported) {
  // A valid container holding only a string table is not a detector state.
  profile::DomainHistory history;
  history.update({"a.com"});
  ASSERT_TRUE(storage::save_domain_history(history, path("d.bin")));
  LoadStatus status;
  EXPECT_FALSE(storage::load_detector_state(path("d.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::MissingSection);
  // And the reverse: a full state is not rejected as a domain history
  // (it has the section), but a ua-only file is.
  ASSERT_TRUE(storage::save_ua_history(profile::UaHistory(5), path("u.bin")));
  EXPECT_FALSE(storage::load_domain_history(path("u.bin"), &status).has_value());
  EXPECT_EQ(status.error, LoadError::MissingSection);
}

}  // namespace
}  // namespace eid::storage
