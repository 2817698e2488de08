// State-persistence benchmark: the binary container (storage/state.h) on
// a month-scale profile corpus — bytes on disk and save/load wall time for
// the domain history, the UA history, the combined detector state, one
// day's delta frame, and Detector::load_state of the base plus a 6-frame
// chain (what a hot standby pays to catch up on each change). The paper's
// system carries months of accumulated histories between daily batches
// (§III-E); at enterprise scale that file is rewritten and re-read every
// day, so both size and load latency are operational costs.
//
// Pass --json[=path] to record the results as the "state_io" section of
// BENCH_perf.json at the repo root (run from the repo root).
//
// Corpus shape mirrors a real profile: a domain history of distinct folded
// domains, and a UA history whose rare entries each list the distinct
// corp hosts that used the UA — host names repeat across thousands of UA
// entries, which is exactly what the shared interned string table
// collapses to 1-3 byte ids.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/detector.h"
#include "bench_common.h"
#include "sim/whois_db.h"
#include "storage/delta.h"
#include "storage/state.h"
#include "util/rng.h"

namespace {

using namespace eid;

struct Corpus {
  profile::DomainHistory domains;
  profile::UaHistory uas{10};
  std::size_t n_domains = 0;
  std::size_t n_uas = 0;
  std::size_t n_hosts = 0;
};

Corpus build_corpus() {
  Corpus corpus;
  util::Rng rng(42);

  // Host pool: workstation names as DHCP hands them out.
  constexpr std::size_t kHosts = 6000;
  std::vector<std::string> hosts;
  hosts.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "workstation-%05zu.%s.ad.corp.example.com",
                  h, h % 3 == 0 ? "nyc" : (h % 3 == 1 ? "sfo" : "lon"));
    hosts.emplace_back(buf);
  }

  // Domain history: a month of distinct folded destinations.
  constexpr std::size_t kDomains = 20000;
  {
    std::vector<std::string> domains;
    domains.reserve(kDomains);
    for (std::size_t d = 0; d < kDomains; ++d) {
      char buf[80];
      switch (d % 4) {
        case 0:
          std::snprintf(buf, sizeof(buf), "site-%06zu.example-brand.com", d);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf), "cdn%02zu.assets-%05zu.edgecast.net",
                        d % 16, d);
          break;
        case 2:
          std::snprintf(buf, sizeof(buf), "api.partner-%06zu.io", d);
          break;
        default:
          std::snprintf(buf, sizeof(buf), "mail-%06zu.hosting.example.org", d);
          break;
      }
      domains.emplace_back(buf);
    }
    corpus.domains.update(domains);
    corpus.n_domains = corpus.domains.size();
  }

  // UA history: enterprise software population. ~10% popular, the rest
  // rare with 6..9 distinct hosts drawn from the shared pool (entries near
  // the popularity threshold dominate bytes: each lists almost
  // rare_threshold hosts).
  constexpr std::size_t kUas = 150000;
  for (std::size_t u = 0; u < kUas; ++u) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                  "AppleWebKit/537.36 (KHTML, like Gecko) "
                  "CorpApp-%05zu/%zu.%zu.%zu",
                  u, 1 + u % 7, u % 10, u % 4);
    const std::string ua(buf);
    if (u % 10 == 0) {
      corpus.uas.restore_entry(ua, true, {});
      continue;
    }
    const std::size_t n = 6 + rng.uniform(4);
    std::vector<std::string_view> ua_hosts;
    ua_hosts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ua_hosts.push_back(hosts[rng.uniform(kHosts)]);
    }
    corpus.uas.restore_entry(ua, false,
                             {ua_hosts.data(), ua_hosts.size()});
  }
  corpus.n_uas = corpus.uas.distinct_uas();
  corpus.n_hosts = kHosts;
  return corpus;
}

double seconds_of(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (s < best) best = s;
  }
  return best;
}

std::size_t file_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

struct FormatResult {
  std::size_t bytes = 0;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
};

void abort_on(bool failed, const char* what) {
  if (!failed) return;
  std::fprintf(stderr, "bench_state_io: %s failed\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");

  bench::print_header("STATE-IO", "profile persistence: binary container");
  std::printf("building corpus...\n");
  const Corpus corpus = build_corpus();
  std::printf("corpus: %zu domains, %zu UAs (host pool %zu)\n",
              corpus.n_domains, corpus.n_uas, corpus.n_hosts);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "eid-bench-state-io";
  std::filesystem::create_directories(dir);
  const auto dom_bin = dir / "domains.bin.hist";
  const auto ua_bin = dir / "uas.bin.hist";
  const auto state_bin = dir / "detector.state";

  FormatResult binary;
  binary.save_seconds = seconds_of(
      [&] {
        abort_on(!storage::save_domain_history(corpus.domains, dom_bin),
                 "binary domain save");
        abort_on(!storage::save_ua_history(corpus.uas, ua_bin), "binary ua save");
      },
      5);
  binary.bytes = file_bytes(dom_bin) + file_bytes(ua_bin);

  // The previously loaded copy is destroyed outside the timed region.
  std::optional<profile::DomainHistory> loaded_domains;
  std::optional<profile::UaHistory> loaded_uas;
  binary.load_seconds = 1e300;
  for (int r = 0; r < 3; ++r) {
    loaded_domains.reset();
    loaded_uas.reset();
    const double s = seconds_of(
        [&] {
          loaded_domains = storage::load_domain_history(dom_bin);
          loaded_uas = storage::load_ua_history(ua_bin);
        },
        1);
    abort_on(!loaded_domains.has_value() || !loaded_uas.has_value(), "load");
    abort_on(loaded_domains->size() != corpus.n_domains ||
                 loaded_uas->distinct_uas() != corpus.n_uas,
             "load consistency check");
    if (s < binary.load_seconds) binary.load_seconds = s;
  }

  // Full detector-state checkpoint: absolute cost of the daily save a
  // durable deployment pays.
  storage::DetectorState state;
  state.domain_history = corpus.domains;
  state.ua_history = corpus.uas;
  const double state_save_seconds = seconds_of(
      [&] { abort_on(!storage::save_detector_state(state, state_bin),
                     "state save"); });
  std::optional<storage::DetectorState> loaded_state;
  double state_load_seconds = 1e300;
  for (int r = 0; r < 3; ++r) {
    loaded_state.reset();
    const double s = seconds_of(
        [&] { loaded_state = storage::load_detector_state(state_bin); }, 1);
    abort_on(!loaded_state.has_value(), "state load");
    if (s < state_load_seconds) state_load_seconds = s;
  }
  const std::size_t state_bytes = file_bytes(state_bin);

  // Delta checkpoint (storage/delta.h): one day's growth — new domains,
  // touched UA entries, the always-small absolute sections — appended as
  // a frame, versus rewriting the month-scale state above. This is the
  // daily-save cost a chain deployment actually pays between compactions.
  const auto chain_path = storage::delta_chain_path(state_bin);
  std::vector<std::string> day_domains;
  for (std::size_t d = 0; d < 300; ++d) {
    day_domains.push_back("fresh-" + std::to_string(d) + ".example.net");
  }
  std::vector<std::string> day_uas;
  std::vector<std::string> day_hosts;
  for (std::size_t u = 0; u < 800; ++u) {
    day_uas.push_back("CorpApp-Delta-" + std::to_string(u) + "/1.0");
  }
  for (std::size_t h = 0; h < 400; ++h) {
    day_hosts.push_back("workstation-" + std::to_string(h) +
                        ".nyc.ad.corp.example.com");
  }
  util::Rng delta_rng(7);
  storage::DeltaInputs day;
  {
    std::string base_file_bytes;
    {
      std::ifstream in(state_bin, std::ios::binary);
      base_file_bytes.assign(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    abort_on(base_file_bytes.empty(), "base checkpoint read");
    day.base_crc = storage::base_binding(base_file_bytes);
  }
  day.day = 400;
  day.days_ingested = 30;
  day.new_domains = &day_domains;
  day.ua_entries.reserve(day_uas.size());
  for (const std::string& ua : day_uas) {
    storage::DeltaUaEntryView entry;
    entry.ua = ua;
    // Distinct hosts, as a UaHistory entry holds them (a repeated host
    // would encode a frame that does not decode).
    const std::size_t n = 6 + delta_rng.uniform(4);
    while (entry.hosts.size() < n) {
      const std::string_view host =
          day_hosts[delta_rng.uniform(day_hosts.size())];
      if (std::find(entry.hosts.begin(), entry.hosts.end(), host) ==
          entry.hosts.end()) {
        entry.hosts.push_back(host);
      }
    }
    day.ua_entries.push_back(std::move(entry));
  }
  const core::PipelineConfig delta_config;
  const core::ScoredModel delta_model;
  day.config = &delta_config;
  day.cc_model = &delta_model;
  day.sim_model = &delta_model;
  day.training.models_ready = true;
  day.counters.days_operated = 30;
  day.has_cursor = true;
  day.cursor_day = 400;
  day.cursor_offset = 1 << 20;

  double delta_save_seconds = 1e300;
  std::size_t delta_frame_bytes = 0;
  for (int r = 0; r < 5; ++r) {
    std::filesystem::remove(chain_path);
    day.seq = 1;
    const double s = seconds_of(
        [&] {
          const std::string payload = storage::encode_delta_frame(day);
          delta_frame_bytes = payload.size();
          abort_on(!storage::append_delta_frame(chain_path, payload),
                   "delta append");
          ++day.seq;
        },
        1);
    if (s < delta_save_seconds) delta_save_seconds = s;
  }
  std::filesystem::remove(chain_path);

  // Restore path: Detector::load_state of the month-scale base plus a
  // chain of kChainFrames day frames, each with its own new domains. This
  // is the catch-up cost a hot standby pays each time the primary saves.
  // Each timed load also frees the previously loaded state, as a standby's
  // reload does.
  constexpr std::uint64_t kChainFrames = 6;
  for (std::uint64_t seq = 1; seq <= kChainFrames; ++seq) {
    for (std::size_t d = 0; d < day_domains.size(); ++d) {
      day_domains[d] = "fresh-" + std::to_string(seq) + "-" +
                       std::to_string(d) + ".example.net";
    }
    day.seq = seq;
    abort_on(!storage::append_delta_frame(chain_path,
                                          storage::encode_delta_frame(day)),
             "chain append");
  }
  const sim::WhoisDb whois;
  api::Detector detector(core::PipelineConfig{}, whois);
  double chain_load_seconds = 1e300;
  for (int r = 0; r < 3; ++r) {
    storage::ChainLoadReport report;
    const double s = seconds_of(
        [&] { abort_on(!detector.load_state(state_bin, &report), "chain load"); },
        1);
    if (report.degraded || report.frames_applied != kChainFrames) {
      std::fprintf(stderr, "bench_state_io: chain load applied %zu of %llu "
                   "frames (%s)\n", report.frames_applied,
                   static_cast<unsigned long long>(kChainFrames),
                   report.detail.c_str());
      return 1;
    }
    if (s < chain_load_seconds) chain_load_seconds = s;
  }
  std::filesystem::remove(chain_path);

  const double delta_vs_full_speedup =
      delta_save_seconds > 0 ? state_save_seconds / delta_save_seconds : 0.0;

  std::printf("\nhistories: %zu bytes, save %.3fs, load %.3fs\n", binary.bytes,
              binary.save_seconds, binary.load_seconds);
  std::printf("full detector state: %zu bytes, save %.3fs, load %.3fs\n",
              state_bytes, state_save_seconds, state_load_seconds);
  std::printf("delta frame (one day): %zu bytes, save %.5fs — %.1fx faster "
              "than the full rewrite\n",
              delta_frame_bytes, delta_save_seconds, delta_vs_full_speedup);
  std::printf("Detector::load_state, base + %llu-frame chain: %.3fs\n",
              static_cast<unsigned long long>(kChainFrames),
              chain_load_seconds);

  // The whole point of the delta chain is that daily saves stop paying
  // for the month: a day frame must beat the full rewrite by a wide
  // margin, not scrape past it.
  constexpr double kMinDeltaSpeedup = 3.0;
  if (delta_vs_full_speedup < kMinDeltaSpeedup) {
    std::fprintf(stderr,
                 "bench_state_io: delta save only %.2fx faster than the "
                 "full rewrite (floor %.1fx)\n",
                 delta_vs_full_speedup, kMinDeltaSpeedup);
    return 1;
  }
  std::printf("delta save speedup %.2fx >= %.1fx floor: ok\n",
              delta_vs_full_speedup, kMinDeltaSpeedup);

  std::filesystem::remove_all(dir);

  if (!json_path.empty()) {
    std::ostringstream body;
    body.precision(6);
    body << "{\n"
         << "    \"cpu_cores\": " << eid::bench::cpu_cores() << ",\n"
         << "    \"corpus\": {\"domains\": " << corpus.n_domains
         << ", \"uas\": " << corpus.n_uas << ", \"hosts\": " << corpus.n_hosts
         << "},\n"
         << "    \"binary\": {\"bytes\": " << binary.bytes
         << ", \"save_seconds\": " << binary.save_seconds
         << ", \"load_seconds\": " << binary.load_seconds << "},\n"
         << "    \"detector_state\": {\"bytes\": " << state_bytes
         << ", \"save_seconds\": " << state_save_seconds
         << ", \"load_seconds\": " << state_load_seconds << "},\n"
         << "    \"delta_frame_bytes\": " << delta_frame_bytes << ",\n"
         << "    \"delta_save_seconds\": " << delta_save_seconds << ",\n"
         << "    \"delta_vs_full_speedup\": " << delta_vs_full_speedup << ",\n"
         << "    \"chain_frames\": " << kChainFrames << ",\n"
         << "    \"chain_load_seconds\": " << chain_load_seconds
         << "\n  }";
    if (eid::bench::write_json_section(json_path, "state_io", body.str())) {
      std::printf("recorded state_io section of %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
