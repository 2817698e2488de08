// Multi-day throughput benchmark for the day-analysis path: replays a
// simulated enterprise proxy workload day by day through the public parts
// of Detector::run_days (begin_day, add_chunk, finish_day, report_day,
// update_histories) and reports events/sec with a per-stage breakdown.
//
//   bench_throughput_day [--days N] [--repeat N] [--json[=path]]
//
// --repeat runs the workload N times, byte-compares every run's reports,
// and reports the median run (by wall time) with the wall-time spread —
// the recommended mode on noisy shared hardware. --json records the
// "throughput" section of BENCH_perf.json at the repo root
// (bench_perf_pipeline writes the "micro" section of the same file).
// Defaults: 3 days, three repeats.
//
// Every stage is timed directly, none is a residual: ingest and commit by
// a steady clock around add_chunk and update_histories, finalize / rare /
// automation / score+BP as the run's growth in the pipeline's
// eid_pipeline_*_seconds histograms (obs/metrics.h), read through
// Detector::metrics_snapshot() — the same measurements the observability
// exports carry.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "obs/metrics.h"
#include "sim/enterprise.h"

namespace {

using namespace eid;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

struct RunResult {
  double wall = 0.0;        ///< every day, ingest through commit
  double ingest = 0.0;      ///< DayAccumulator::add_chunk
  double finalize = 0.0;    ///< CSR finalize (eid_pipeline_finalize_seconds)
  double rare = 0.0;
  double automation = 0.0;
  double score_bp = 0.0;    ///< report_day (thresholds + both BP modes)
  double commit = 0.0;      ///< Pipeline::update_histories
  std::size_t events = 0;
  std::size_t detections = 0;   ///< headline count for the console line
  std::string report_digest;    ///< all DayReport JSON, concatenated —
                                ///< must be byte-identical across repeats
};

/// Running totals of the pipeline's stage histograms.
struct StageSums {
  double finalize = 0.0;
  double rare = 0.0;
  double automation = 0.0;
  double report = 0.0;
};

StageSums stage_sums(const api::Detector& detector) {
  const obs::MetricsSnapshot snapshot = detector.metrics_snapshot();
  const auto sum = [&snapshot](std::string_view name) {
    for (const obs::HistogramSnapshot& histogram : snapshot.histograms) {
      if (histogram.name == name) return histogram.sum;
    }
    return 0.0;
  };
  return {sum("eid_pipeline_finalize_seconds"),
          sum("eid_pipeline_rare_seconds"),
          sum("eid_pipeline_automation_seconds"),
          sum("eid_pipeline_report_seconds")};
}

sim::SimConfig workload_config() {
  // Analysis-heavy enterprise day: a large browse tail (rare-destination
  // extraction) and many periodic services (long per-edge time series for
  // the automation scan).
  sim::SimConfig config;
  config.flavor = sim::Flavor::Proxy;
  config.seed = 29;
  config.day0 = util::make_day(2014, 1, 1);
  config.n_hosts = 800;
  config.n_popular = 400;
  config.tail_per_day = 500;
  config.automated_tail_per_day = 80;
  config.grayware_per_day = 8;
  return config;
}

RunResult run_once(const features::WhoisSource& whois,
                   const std::vector<logs::ConnEvent>& profile_events,
                   const std::vector<std::vector<logs::ConnEvent>>& days,
                   util::Day day0) {
  api::Detector detector(core::PipelineConfig{}, whois);
  api::VectorSource profile(day0, &profile_events);
  detector.ingest(profile);

  RunResult result;
  core::Pipeline& pipeline = detector.pipeline();
  api::MultiDaySource source(day0 + 1, &days);
  const StageSums before = stage_sums(detector);
  const auto start = clock_type::now();
  std::optional<api::EventChunk> chunk = source.next_chunk();
  while (chunk) {
    const util::Day day = chunk->day;
    core::DayAccumulator accumulator = pipeline.begin_day(day);
    for (; chunk && chunk->day == day; chunk = source.next_chunk()) {
      const auto ingest_start = clock_type::now();
      accumulator.add_chunk(chunk->events);
      result.ingest += seconds_since(ingest_start);
      result.events += chunk->events.size();
    }
    const core::DayAnalysis analysis =
        pipeline.finish_day(std::move(accumulator));
    const core::DayReport report = pipeline.report_day(analysis, {});
    const auto commit_start = clock_type::now();
    pipeline.update_histories(analysis.graph);
    result.commit += seconds_since(commit_start);
    result.detections +=
        report.automated_scores.size() + report.nohint.domains.size();
    result.report_digest += core::day_report_to_json(report);
  }
  result.wall = seconds_since(start);
  const StageSums after = stage_sums(detector);
  result.finalize = after.finalize - before.finalize;
  result.rare = after.rare - before.rare;
  result.automation = after.automation - before.automation;
  result.score_bp = after.report - before.report;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");
  std::size_t n_days = 3;
  std::size_t repeats = 3;
  bool non_default_run = false;  // --json only records the default workload
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      const int days = std::atoi(argv[++i]);
      n_days = days > 0 ? static_cast<std::size_t>(days) : 1;
      non_default_run = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      // Median-of-N is noise reduction, not a workload change — still
      // recordable with --json.
      const int n = std::atoi(argv[++i]);
      repeats = n > 0 ? static_cast<std::size_t>(n) : 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--days N] [--repeat N] [--json[=path]]\n",
                   argv[0]);
      return 1;
    }
  }

  eid::bench::print_header("BENCH_throughput", "day-analysis path");
  const sim::SimConfig world = workload_config();
  sim::EnterpriseSimulator simulator(world, {});
  const std::vector<logs::ConnEvent> profile_events =
      simulator.reduced_day(world.day0);
  std::vector<std::vector<logs::ConnEvent>> days;
  std::size_t total_events = 0;
  for (std::size_t d = 0; d < n_days; ++d) {
    days.push_back(
        simulator.reduced_day(world.day0 + 1 + static_cast<util::Day>(d)));
    total_events += days.back().size();
  }
  const unsigned cores = eid::bench::cpu_cores();
  std::printf("workload: %zu hosts, %zu day(s), %zu events, %zu repeat(s), "
              "%u cpu core(s)\n",
              static_cast<std::size_t>(world.n_hosts), n_days, total_events,
              repeats, cores);

  std::vector<RunResult> runs;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    runs.push_back(
        run_once(simulator.whois(), profile_events, days, world.day0));
    // Byte-compare the serialized reports, not just counts: a bug that
    // swaps WHICH domains are detected must fail here too.
    if (runs.back().report_digest != runs.front().report_digest) {
      std::fprintf(stderr,
                   "FATAL: DayReports differ across repeats (determinism "
                   "violation)\n");
      return 1;
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.wall < b.wall;
            });
  const RunResult& r = runs[runs.size() / 2];  // median by wall
  const double wall_min = runs.front().wall;
  const double wall_max = runs.back().wall;
  std::printf(
      "%10.0f events/s  wall=%.3fs [%.3f..%.3f]  ingest=%.3f finalize=%.3f "
      "rare=%.3f automation=%.3f score+bp=%.3f commit=%.3f  detections=%zu\n",
      static_cast<double>(r.events) / r.wall, r.wall, wall_min, wall_max,
      r.ingest, r.finalize, r.rare, r.automation, r.score_bp, r.commit,
      r.detections);

  if (json_path.empty()) return 0;
  if (non_default_run) {
    // Same rule as bench_perf_pipeline's filter guard: the tracked file
    // compares across PRs, so only the canonical workload is recorded — a
    // smoke run must not overwrite the trajectory.
    std::fprintf(stderr,
                 "not writing %s: non-default --days would make the recorded "
                 "trajectory incomparable — rerun without it\n",
                 json_path.c_str());
    return 0;
  }
  std::ostringstream body;
  body << std::setprecision(17);  // keep sub-percent drift visible across PRs
  body << "{\n    \"workload\": {\"hosts\": " << world.n_hosts
       << ", \"days\": " << n_days << ", \"events\": " << total_events
       << ", \"cpu_cores\": " << cores << ", \"repeats\": " << repeats
       << "},\n    \"events_per_second\": "
       << static_cast<double>(r.events) / r.wall
       << ",\n    \"wall_seconds\": " << r.wall
       << ",\n    \"wall_seconds_min_max\": [" << wall_min << ", " << wall_max
       << "],\n    \"stages\": {\"ingest\": " << r.ingest
       << ", \"finalize\": " << r.finalize << ", \"rare\": " << r.rare
       << ", \"automation\": " << r.automation
       << ", \"score_bp\": " << r.score_bp << ", \"commit\": " << r.commit
       << "}\n  }";
  if (!eid::bench::write_json_section(json_path, "throughput", body.str())) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote throughput section -> %s\n", json_path.c_str());
  return 0;
}
