// Seeded mutation tests for the checkpoint decoders. Each case parses a
// valid container (a full checkpoint or a delta frame), mutates one
// section's payload — bit flip, byte overwrite, truncation, insertion or a
// run of 0xff varint continuation bytes — and re-encodes it with
// ContainerWriter, so every section CRC is valid again and the damage
// reaches the section decoders. A decoder must return a typed LoadError
// or a value, never crash; a mutant that decodes must also restore into a
// Detector and survive one operation day. Run under ASan + UBSan in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "core/incidents.h"
#include "profile/top_sites.h"
#include "sim/ac.h"
#include "storage/container.h"
#include "storage/delta.h"
#include "storage/state.h"
#include "util/rng.h"

namespace eid {
namespace {

constexpr int kMutantsPerCorpus = 2000;
/// Decoded mutants restored and driven through a day: every this-many-th.
constexpr int kRunDayEvery = 8;

sim::AcConfig small_world() {
  sim::AcConfig config;
  config.seed = 31;
  config.n_hosts = 40;
  config.n_popular = 20;
  config.tail_per_day = 10;
  config.automated_tail_per_day = 2;
  config.grayware_per_day = 1;
  config.campaigns_per_week = 2.0;
  return config;
}

/// Mutate one payload in place with one of five edits.
void mutate(std::string& payload, util::Rng& rng) {
  switch (rng.uniform(5)) {
    case 0:  // bit flip
      if (!payload.empty()) {
        payload[rng.index(payload.size())] ^=
            static_cast<char>(1u << rng.uniform(8));
      }
      break;
    case 1:  // byte overwrite
      if (!payload.empty()) {
        payload[rng.index(payload.size())] =
            static_cast<char>(rng.uniform(256));
      }
      break;
    case 2:  // truncate
      payload.resize(rng.index(payload.size() + 1));
      break;
    case 3: {  // insert random bytes
      std::string bytes(1 + rng.index(8), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.uniform(256));
      payload.insert(rng.index(payload.size() + 1), bytes);
      break;
    }
    default: {  // overlong / overflowing varint
      const std::size_t at = rng.index(payload.size() + 1);
      const std::size_t run = 1 + rng.index(12);
      payload.replace(at, std::min(run, payload.size() - at),
                      std::string(run, '\xff'));
      break;
    }
  }
}

/// Re-encode `container` with section `target` mutated; CRCs recomputed.
std::string mutant_of(std::string_view container, util::Rng& rng) {
  const auto reader = storage::ContainerReader::parse(container);
  EXPECT_TRUE(reader.has_value());
  if (!reader) return {};
  const std::size_t target = rng.index(reader->sections().size());
  storage::ContainerWriter writer;
  for (std::size_t i = 0; i < reader->sections().size(); ++i) {
    const storage::Section& section = reader->sections()[i];
    std::string payload(section.payload);
    if (i == target) mutate(payload, rng);
    writer.add_section(static_cast<storage::SectionId>(section.id),
                       std::move(payload));
  }
  return writer.encode();
}

class CheckpointMutationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus();
    Corpus& c = *corpus_;
    c.dir = std::filesystem::temp_directory_path() /
            ("eid-mutation-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(c.dir);
    c.scenario = std::make_unique<sim::AcScenario>(small_world());
    sim::EnterpriseSimulator& simulator = c.scenario->simulator();
    // The simulator is forward-only: generate every day in order.
    const util::Day jan = c.scenario->training_begin();
    std::vector<std::vector<logs::ConnEvent>> training;
    for (int d = 0; d < 5; ++d) {
      training.push_back(simulator.reduced_day(jan + d));
    }
    c.feb = c.scenario->operation_begin();
    for (int d = 0; d < 2; ++d) {
      c.operation.push_back(simulator.reduced_day(c.feb + d));
    }
    c.top_sites.add("top-whitelisted.example");
    const sim::IntelOracle& oracle = c.scenario->oracle();
    const core::LabelFn intel = [&oracle](const std::string& domain) {
      return oracle.vt_reported(domain);
    };

    api::Detector detector(core::PipelineConfig{}, simulator.whois());
    detector.set_top_sites(&c.top_sites);
    const std::filesystem::path state = c.dir / "state.bin";
    const std::filesystem::path chain = storage::delta_chain_path(state);
    const api::CheckpointPolicy policy{7};

    // Mid-training delta frame: carries unfinalized training rows.
    for (int d = 0; d < 2; ++d) {
      api::VectorSource source(jan + d, &training[d]);
      detector.ingest(source);
    }
    EXPECT_TRUE(detector.save_state_delta(state, policy));
    for (int d = 2; d < 5; ++d) {
      api::VectorSource source(jan + d, &training[d]);
      detector.ingest(source, intel);
    }
    EXPECT_TRUE(detector.save_state_delta(state, policy));
    c.corpus.push_back({Kind::Frame, last_frame(chain)});

    // Full checkpoint of a trained, operating detector, and the base
    // detector every decoded mutant is checked against.
    detector.finalize_training();
    detector.set_intel_domains(c.scenario->ioc_seeds());
    {
      api::VectorSource source(c.feb, &c.operation[0]);
      detector.run_day(source, c.feb);
    }
    EXPECT_TRUE(detector.save_state(state));
    c.base = storage::read_file(state).value_or("");
    c.corpus.push_back({Kind::Full, c.base});

    // Operation-day delta frame with the failover payload: rt cursor and
    // an incident snapshot.
    EXPECT_TRUE(detector.save_state_delta(state, policy));  // re-primes
    core::IncidentStore incidents;
    const std::vector<std::string> domains = {"evil.example"};
    const std::vector<std::string> hosts = {"h1"};
    incidents.ingest_community(c.feb, domains, hosts, 100);
    api::CheckpointExtras extras;
    extras.has_cursor = true;
    extras.cursor_day = c.feb;
    extras.cursor_offset = 4096;
    extras.incidents = &incidents;
    EXPECT_TRUE(detector.save_state_delta(state, policy, nullptr, extras));
    c.corpus.push_back({Kind::Frame, last_frame(chain)});
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(corpus_->dir);
    delete corpus_;
    corpus_ = nullptr;
  }

  enum class Kind { Full, Frame };
  struct Seed {
    Kind kind;
    std::string bytes;
  };
  struct Corpus {
    std::filesystem::path dir;
    std::unique_ptr<sim::AcScenario> scenario;
    profile::TopSitesList top_sites;
    util::Day feb = 0;
    std::vector<std::vector<logs::ConnEvent>> operation;
    std::string base;  ///< the clean full checkpoint
    std::vector<Seed> corpus;
  };

  static std::string last_frame(const std::filesystem::path& chain) {
    storage::DeltaChainInfo info;
    EXPECT_TRUE(storage::read_delta_chain(chain, info));
    EXPECT_FALSE(info.frames.empty());
    return info.frames.empty() ? std::string() : info.frames.back().payload;
  }

  /// One operation day on a restored mutant.
  static void run_day(api::Detector& detector) {
    api::VectorSource source(corpus_->feb + 1, &corpus_->operation[1]);
    detector.run_day(source, corpus_->feb + 1);
  }

  static Corpus* corpus_;
};

CheckpointMutationTest::Corpus* CheckpointMutationTest::corpus_ = nullptr;

TEST_F(CheckpointMutationTest, CorpusDecodesClean) {
  ASSERT_EQ(corpus_->corpus.size(), 3u);
  for (const Seed& seed : corpus_->corpus) {
    storage::LoadStatus status;
    if (seed.kind == Kind::Full) {
      EXPECT_TRUE(storage::decode_detector_state(seed.bytes, &status))
          << status.detail;
    } else {
      EXPECT_TRUE(storage::decode_delta_frame(seed.bytes, &status))
          << status.detail;
    }
  }
  const auto rows = storage::decode_delta_frame(corpus_->corpus[0].bytes);
  ASSERT_TRUE(rows.has_value());
  EXPECT_FALSE(rows->training_rows.empty());
  const auto failover = storage::decode_delta_frame(corpus_->corpus[2].bytes);
  ASSERT_TRUE(failover.has_value());
  EXPECT_TRUE(failover->has_cursor);
  EXPECT_TRUE(failover->has_incidents);
}

TEST_F(CheckpointMutationTest, MutatedSectionsFailTypedOrDecode) {
  util::Rng rng(0x6d757461);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  std::size_t ran_day = 0;
  for (std::size_t s = 0; s < corpus_->corpus.size(); ++s) {
    const Seed& seed = corpus_->corpus[s];
    for (int m = 0; m < kMutantsPerCorpus; ++m) {
      const std::string bytes = mutant_of(seed.bytes, rng);
      storage::LoadStatus status;
      if (seed.kind == Kind::Full) {
        std::optional<storage::DetectorState> state =
            storage::decode_detector_state(bytes, &status);
        if (!state) {
          ASSERT_NE(status.error, storage::LoadError::None)
              << "seed " << s << " mutant " << m;
          ++rejected;
          continue;
        }
        ++decoded;
        if (decoded % kRunDayEvery != 0) continue;
        api::Detector detector(core::PipelineConfig{},
                               corpus_->scenario->simulator().whois());
        detector.restore_state(std::move(*state));
        run_day(detector);
        ++ran_day;
      } else {
        std::optional<storage::DeltaFrame> frame =
            storage::decode_delta_frame(bytes, &status);
        if (!frame) {
          ASSERT_NE(status.error, storage::LoadError::None)
              << "seed " << s << " mutant " << m;
          ++rejected;
          continue;
        }
        // Every decoded frame applies onto the base (apply_delta_frame
        // cannot fail) and restores; every 8th also runs a day.
        ++decoded;
        std::optional<storage::DetectorState> state =
            storage::decode_detector_state(corpus_->base);
        ASSERT_TRUE(state.has_value());
        storage::apply_delta_frame(*state, *frame);
        api::Detector detector(core::PipelineConfig{},
                               corpus_->scenario->simulator().whois());
        detector.restore_state(std::move(*state));
        if (decoded % kRunDayEvery != 0) continue;
        run_day(detector);
        ++ran_day;
      }
    }
  }
  // Both outcomes must actually occur, or the mutator is not reaching the
  // decoders.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ran_day, 0u);
  RecordProperty("decoded", static_cast<int>(decoded));
  RecordProperty("rejected", static_cast<int>(rejected));
  RecordProperty("ran_day", static_cast<int>(ran_day));
}

}  // namespace
}  // namespace eid
