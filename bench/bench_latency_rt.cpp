// Real-time continuous detection: event→emission latency and tick
// throughput (rt/engine.h). The batch system's detection latency floor is
// one full day — an infection at 09:00 surfaces at midnight. The
// continuous engine re-scores a sliding window every tick and announces
// never-seen-before domains as provisional incidents, so its floor is
// detection lag + one tick. This bench replays two operation days of the
// canonical AC world through the engine at several tick sizes — the first
// day grows the day-long window, the second slides it every tick — and
// records:
//
//   * provisional emission latency (sim-time, nearest-rank p50/p99/max),
//   * wall time and the per-tick evaluation cost distribution, separately
//     for the growing day and the sliding day (nearest-rank
//     {growing,sliding}_tick_p50/p99_seconds),
//   * peak raw-event backlog — the window seals evaluated buckets into
//     flat segments and drops their raw events, so the peak must stay well
//     below a day's event count (asserted below),
//   * and that both days close bit-identical to run_day — the bench fails
//     if either diverges.
//
// The trained detector is checkpointed once and restored per config
// (storage/state.h), so every run starts from an identical state.
//
// Pass --json[=path] to record the results as the "latency_rt" section of
// BENCH_perf.json at the repo root (run from the repo root).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "api/event_source.h"
#include "bench_common.h"
#include "core/report_json.h"
#include "eval/ac_runner.h"
#include "rt/engine.h"

namespace {

using namespace eid;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct ConfigResult {
  std::int64_t tick_seconds = 0;
  std::size_t ticks_closed = 0;
  std::size_t evaluations = 0;
  std::size_t provisional_emissions = 0;
  std::size_t finalized_emissions = 0;
  rt::LatencySummary latency{};
  double run_seconds = 0.0;
  std::size_t growing_evaluations = 0;
  double growing_tick_p50_seconds = 0.0;
  double growing_tick_p99_seconds = 0.0;
  std::size_t sliding_evaluations = 0;
  double sliding_tick_p50_seconds = 0.0;
  double sliding_tick_p99_seconds = 0.0;
  std::size_t peak_buffered_events = 0;
  double events_per_second = 0.0;
  double ticks_per_second = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");

  bench::print_header("LATENCY-RT",
                      "continuous engine: emission latency + tick throughput");
  bench::print_note(
      "sim-time latency is deterministic; wall-time throughput varies with "
      "the machine");

  sim::AcScenario scenario(bench::ac_config());
  eval::AcRunner runner(scenario);
  std::printf("training on January...\n");
  runner.train();

  // Checkpoint the trained state once; every measured run restores it so
  // batch and continuous start bit-identical.
  const std::filesystem::path state_path =
      std::filesystem::temp_directory_path() / "eid-bench-latency-rt.state";
  if (!runner.detector().save_state(state_path)) {
    std::fprintf(stderr, "bench_latency_rt: checkpoint save failed\n");
    return 1;
  }

  // Two operation days: the first grows the day-long window, the second
  // slides it at every tick. The simulator is forward-only: materialize
  // the days once and replay them from memory for every config.
  const util::Day first_day = scenario.operation_begin();
  std::vector<std::vector<logs::ConnEvent>> days;
  for (util::Day day = first_day; day < first_day + 2; ++day) {
    days.push_back(scenario.simulator().reduced_day(day));
  }
  const std::size_t total_events = days[0].size() + days[1].size();
  const std::size_t smallest_day = std::min(days[0].size(), days[1].size());
  core::SocSeeds seeds;
  seeds.domains = scenario.ioc_seeds();
  std::printf("operation days %s, %s: %zu + %zu events, %zu IOC seeds\n",
              util::format_day(first_day).c_str(),
              util::format_day(first_day + 1).c_str(), days[0].size(),
              days[1].size(), seeds.domains.size());

  const auto fresh_detector = [&] {
    api::Detector detector(core::PipelineConfig{},
                           scenario.simulator().whois());
    if (!detector.load_state(state_path)) {
      std::fprintf(stderr, "bench_latency_rt: checkpoint restore failed\n");
      std::exit(1);
    }
    return detector;
  };

  // Batch baseline: the reports every continuous run must close with.
  double batch_seconds = 0.0;
  std::vector<std::string> baseline;
  {
    api::Detector detector = fresh_detector();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < days.size(); ++i) {
      const util::Day day = first_day + static_cast<util::Day>(i);
      api::VectorSource source(day, &days[i]);
      const core::DayReport report = detector.run_day(source, day, seeds);
      baseline.push_back(core::day_report_to_json(report));
      std::printf("batch run_day %s: %zu C&C, %zu no-hint, %zu soc-hints\n",
                  util::format_day(day).c_str(), report.cc_domains.size(),
                  report.nohint.domains.size(),
                  report.sochints.domains.size());
    }
    batch_seconds = seconds_since(start);
    std::printf("batch: %.3fs for %zu days\n", batch_seconds, days.size());
  }

  constexpr std::int64_t kTicks[] = {300, 3600, 86400};
  std::vector<ConfigResult> results;
  for (const std::int64_t tick : kTicks) {
    api::Detector detector = fresh_detector();
    rt::EngineConfig config;
    config.window.tick_seconds = tick;
    config.seeds = seeds;
    api::MultiDaySource source(first_day, &days);
    const auto start = std::chrono::steady_clock::now();
    const rt::ContinuousReport rep = detector.run_continuous(source, config);
    ConfigResult r;
    r.tick_seconds = tick;
    r.run_seconds = seconds_since(start);
    bool identical = rep.days.size() == baseline.size();
    for (std::size_t i = 0; identical && i < baseline.size(); ++i) {
      identical = core::day_report_to_json(rep.days[i]) == baseline[i];
    }
    if (!identical) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=%lld day-close reports diverged "
                   "from batch run_day\n",
                   static_cast<long long>(tick));
      return 1;
    }
    // The day-long window grows through the first day's evaluations and
    // slides through the second's.
    std::vector<double> growing;
    std::vector<double> sliding;
    for (const rt::TickEvaluation& evaluation : rep.tick_evaluations) {
      (evaluation.day == first_day ? growing : sliding)
          .push_back(evaluation.seconds);
    }
    r.growing_evaluations = growing.size();
    r.growing_tick_p50_seconds = rt::nearest_rank(growing, 0.50);
    r.growing_tick_p99_seconds = rt::nearest_rank(growing, 0.99);
    r.sliding_evaluations = sliding.size();
    r.sliding_tick_p50_seconds = rt::nearest_rank(sliding, 0.50);
    r.sliding_tick_p99_seconds = rt::nearest_rank(sliding, 0.99);
    r.peak_buffered_events = rep.stats.peak_buffered_events;
    // The seal-and-drop memory story: evaluated buckets release their raw
    // events, so the raw backlog peak must stay far below a day's volume
    // whenever the day spans many ticks.
    if (tick < 86400 && r.peak_buffered_events >= smallest_day / 4) {
      std::fprintf(stderr,
                   "bench_latency_rt: tick=%lld peak backlog %zu too close "
                   "to day volume %zu (seal-and-drop broken?)\n",
                   static_cast<long long>(tick), r.peak_buffered_events,
                   smallest_day);
      return 1;
    }
    r.ticks_closed = rep.stats.ticks_closed;
    r.evaluations = rep.stats.evaluations;
    r.provisional_emissions = rep.stats.provisional_emissions;
    r.finalized_emissions = rep.stats.finalized_emissions;
    r.latency = rt::summarize_latency(rep.emissions, /*provisional_only=*/true);
    r.events_per_second =
        r.run_seconds > 0 ? static_cast<double>(total_events) / r.run_seconds
                          : 0;
    r.ticks_per_second =
        r.run_seconds > 0
            ? static_cast<double>(r.ticks_closed) / r.run_seconds
            : 0;
    results.push_back(r);
  }

  std::printf("\n%8s %6s %6s %10s %10s %9s %11s %11s %11s %11s %9s\n",
              "tick", "evals", "prov", "p50 lat", "p99 lat", "run s",
              "grow p50", "grow p99", "slide p50", "slide p99", "peak buf");
  for (const ConfigResult& r : results) {
    std::printf(
        "%7llds %6zu %6zu %9.0fs %9.0fs %9.3f %10.5fs %10.5fs %10.5fs "
        "%10.5fs %9zu\n",
        static_cast<long long>(r.tick_seconds), r.evaluations,
        r.provisional_emissions, r.latency.p50_seconds, r.latency.p99_seconds,
        r.run_seconds, r.growing_tick_p50_seconds, r.growing_tick_p99_seconds,
        r.sliding_tick_p50_seconds, r.sliding_tick_p99_seconds,
        r.peak_buffered_events);
  }
  std::printf(
      "\nboth days close bit-identical to batch at every tick size: ok\n");

  if (!json_path.empty()) {
    std::ostringstream body;
    body.precision(6);
    body << "{\n"
         << "    \"cpu_cores\": " << eid::bench::cpu_cores()
         << ",\n    \"days\": " << days.size()
         << ",\n    \"day_events\": [" << days[0].size() << ", "
         << days[1].size() << "]"
         << ",\n    \"batch_seconds\": " << batch_seconds
         << ",\n    \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& r = results[i];
      body << "      {\"tick_seconds\": " << r.tick_seconds
           << ", \"ticks_closed\": " << r.ticks_closed
           << ", \"evaluations\": " << r.evaluations
           << ", \"provisional_emissions\": " << r.provisional_emissions
           << ", \"finalized_emissions\": " << r.finalized_emissions
           << ", \"latency_count\": " << r.latency.count
           << ", \"latency_p50_seconds\": " << r.latency.p50_seconds
           << ", \"latency_p99_seconds\": " << r.latency.p99_seconds
           << ", \"latency_max_seconds\": " << r.latency.max_seconds
           << ", \"run_seconds\": " << r.run_seconds
           << ", \"growing_evaluations\": " << r.growing_evaluations
           << ", \"growing_tick_p50_seconds\": " << r.growing_tick_p50_seconds
           << ", \"growing_tick_p99_seconds\": " << r.growing_tick_p99_seconds
           << ", \"sliding_evaluations\": " << r.sliding_evaluations
           << ", \"sliding_tick_p50_seconds\": " << r.sliding_tick_p50_seconds
           << ", \"sliding_tick_p99_seconds\": " << r.sliding_tick_p99_seconds
           << ", \"rt_peak_buffered_events\": " << r.peak_buffered_events
           << ", \"events_per_second\": " << r.events_per_second
           << ", \"ticks_per_second\": " << r.ticks_per_second
           << ", \"batch_identical\": true}"
           << (i + 1 < results.size() ? ",\n" : "\n");
    }
    body << "    ]\n  }";
    if (eid::bench::write_json_section(json_path, "latency_rt", body.str())) {
      std::printf("recorded latency_rt section of %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }

  std::error_code ec;
  std::filesystem::remove(state_path, ec);
  return 0;
}
