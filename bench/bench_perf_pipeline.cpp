// Throughput benchmarks (google-benchmark) for the stages that must keep
// up with terabyte-scale daily log volume (§II-C): domain folding, proxy
// line tokenizing, DNS and proxy reduction (also on a canonical-world day
// and on one whose destinations never repeat), a proxy day file through
// api::TsvFileSource (parse + reduce fused), graph construction, periodicity testing, rare
// extraction, belief propagation, one rt tick's window seal + filtered
// assembly, and the streaming api::Detector facade (chunk-size sweep:
// throughput must be flat in the chunking).
//
// Pass --json[=path] to also record the results as the "micro" section of
// BENCH_perf.json at the repo root, so perf is tracked across PRs
// (bench_throughput_day writes the "throughput" section of the same file).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <span>
#include <sstream>

#include "api/detector.h"
#include "bench_common.h"
#include "api/sources.h"
#include "core/belief_propagation.h"
#include "core/scorers.h"
#include "eval/lanl_runner.h"
#include "logs/folding.h"
#include "logs/io.h"
#include "logs/reduction.h"
#include "obs/metrics.h"
#include "profile/domain_history.h"
#include "rt/window.h"
#include "sim/ac.h"
#include "sim/enterprise.h"
#include "timing/periodicity.h"

namespace {

using namespace eid;

sim::SimConfig bench_config(sim::Flavor flavor) {
  sim::SimConfig config;
  config.flavor = flavor;
  config.seed = 21;
  config.day0 = util::make_day(2014, 1, 1);
  config.n_hosts = 400;
  config.n_popular = 200;
  config.tail_per_day = 120;
  config.automated_tail_per_day = 6;
  config.grayware_per_day = 2;
  return config;
}

void BM_FoldDomain(benchmark::State& state) {
  const std::vector<std::string> names = {
      "news.nbc.com", "deep.sub.example.org", "a.b.c.d.e.wide.net",
      "www.bbc.co.uk", "short.io"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::fold_domain(names[i % names.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FoldDomain);

void BM_ParseProxyLine(benchmark::State& state) {
  // One simulated day's proxy lines, tokenized in place into field views.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const sim::DayLogs logs = sim.simulate_day(util::make_day(2014, 1, 2));
  std::vector<std::string> lines;
  for (const auto& rec : logs.proxy) lines.push_back(logs::format_proxy_line(rec));
  logs::ProxyFields fields;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::parse_proxy_fields(lines[i % lines.size()], fields));
    benchmark::DoNotOptimize(fields);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseProxyLine);

void BM_DnsReduction(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Dns), {});
  const sim::DayLogs logs = sim.simulate_day(util::make_day(2014, 1, 2));
  const logs::DnsReductionConfig config = sim.dns_reduction_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::reduce_dns(logs.dns, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.dns.size()));
}
BENCHMARK(BM_DnsReduction);

void BM_ProxyReduction(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const sim::DayLogs logs = sim.simulate_day(day);
  const logs::ProxyReductionConfig config = sim.proxy_reduction_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        logs::reduce_proxy(logs.proxy, sim.dhcp(), config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.proxy.size()));
}
BENCHMARK(BM_ProxyReduction);

/// One February day of the canonical AC world (bench::ac_config(), the
/// world of bench/e2e's nightly files): ~40k proxy records over ~850
/// distinct raw destinations and ~720 source addresses, ~80% of them
/// without a hostname (DHCP-resolved). `distinct` is the same day with a
/// label of its own ("r<i>.") in front of every record's destination, so
/// no destination repeats: the destination memo's worst case.
struct CanonicalProxyDay {
  std::vector<logs::ProxyRecord> records;
  std::vector<logs::ProxyRecord> distinct;
  logs::DhcpTable leases;
  logs::ProxyReductionConfig config;
};

const CanonicalProxyDay& canonical_proxy_day() {
  static const CanonicalProxyDay day = [] {
    sim::AcScenario scenario(bench::ac_config());
    sim::EnterpriseSimulator& simulator = scenario.simulator();
    CanonicalProxyDay out;
    out.records = simulator.simulate_day(scenario.operation_begin()).proxy;
    out.distinct = out.records;
    for (std::size_t i = 0; i < out.distinct.size(); ++i) {
      std::string& domain = out.distinct[i].domain;
      if (!domain.empty()) domain = "r" + std::to_string(i) + "." + domain;
    }
    out.leases = simulator.dhcp();
    out.config = simulator.proxy_reduction_config();
    return out;
  }();
  return day;
}

void BM_ReduceProxy(benchmark::State& state) {
  // reduce_proxy over the canonical day (arg 0) or its all-distinct
  // destinations twin (arg 1). Items are records.
  const CanonicalProxyDay& day = canonical_proxy_day();
  const auto& records = state.range(0) == 1 ? day.distinct : day.records;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::reduce_proxy(records, day.leases, day.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReduceProxy)->Arg(0)->Arg(1);

void BM_TsvFileSourceProxyDay(benchmark::State& state) {
  // A simulated proxy day file read end to end through the fused path:
  // each line tokenized in place and reduced into a reused event slot, in
  // default-size chunks. Items are lines.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const sim::DayLogs logs = sim.simulate_day(day);
  const logs::ProxyReductionConfig config = sim.proxy_reduction_config();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("eid-bench-proxy-day-" + std::to_string(::getpid()) + ".tsv");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto& rec : logs.proxy) out << logs::format_proxy_line(rec) << '\n';
  }
  const auto bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    api::TsvFileSource source(path, day, sim.dhcp(), config);
    std::size_t events = 0;
    while (auto chunk = source.next_chunk()) events += chunk->events.size();
    benchmark::DoNotOptimize(events);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logs.proxy.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_TsvFileSourceProxyDay);

void BM_DayGraphBuild(benchmark::State& state) {
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const auto events = sim.reduced_day(util::make_day(2014, 1, 2));
  // The production path: DayAccumulator hands the graph 4096-event chunks.
  constexpr std::size_t kChunk = 4096;
  const std::span<const logs::ConnEvent> day(events);
  for (auto _ : state) {
    graph::DayGraph graph;
    for (std::size_t at = 0; at < day.size(); at += kChunk) {
      graph.add_events(day.subspan(at, std::min(kChunk, day.size() - at)));
    }
    graph.finalize();
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DayGraphBuild);

/// The canonical AC world (bench::ac_config()) cut into 300 s buckets by
/// arrival tick (the tick of the running high-water mark, as the rt
/// engine's clock assigns them): February 1 fills a day-long window and
/// February 2 is replayed after it. `history` holds the domains of
/// January (training) and February 1, as after that day's close.
struct RtTickWorld {
  util::Day fill_day = 0;
  std::vector<std::vector<logs::ConnEvent>> fill;    ///< by tick of the day
  std::vector<std::vector<logs::ConnEvent>> replay;  ///< the next day
  profile::DomainHistory history;
};

const RtTickWorld& rt_tick_world() {
  static const RtTickWorld world = [] {
    sim::AcScenario scenario(bench::ac_config());
    sim::EnterpriseSimulator& simulator = scenario.simulator();
    RtTickWorld out;
    out.fill_day = scenario.operation_begin();
    const auto commit = [&out](const std::vector<logs::ConnEvent>& events) {
      std::set<std::string> domains;
      for (const auto& ev : events) domains.insert(ev.domain);
      out.history.update({domains.begin(), domains.end()});
    };
    for (util::Day day = scenario.training_begin();
         day <= scenario.training_end(); ++day) {
      commit(simulator.reduced_day(day));
    }
    const auto by_tick = [](util::Day day,
                            std::vector<logs::ConnEvent> events) {
      std::vector<std::vector<logs::ConnEvent>> ticks(util::kSecondsPerDay /
                                                      300);
      util::TimePoint high_water = util::day_start(day);
      for (auto& ev : events) {
        high_water = std::max(high_water, ev.ts);
        const auto tick = std::min<std::size_t>(
            ticks.size() - 1,
            static_cast<std::size_t>((high_water - util::day_start(day)) / 300));
        ticks[tick].push_back(std::move(ev));
      }
      return ticks;
    };
    std::vector<logs::ConnEvent> fill = simulator.reduced_day(out.fill_day);
    commit(fill);
    out.fill = by_tick(out.fill_day, std::move(fill));
    out.replay =
        by_tick(out.fill_day + 1, simulator.reduced_day(out.fill_day + 1));
    return out;
  }();
  return world;
}

void BM_RtWindowTick(benchmark::State& state) {
  // One rt tick's window work over a sliding day-long window of 300 s
  // buckets: seal the tick's bucket and assemble the window restricted to
  // the domains new to the history (the engine's tick filter). The replay
  // day repeats, re-stamped one day later per lap, so the window keeps
  // sliding; appends, day closes and expiry are not timed. Items are ticks.
  const RtTickWorld& world = rt_tick_world();
  const graph::DomainFilter filter{
      world.history.generation(), [&world](std::string_view name) {
        return world.history.is_new(name);
      }};
  rt::WindowAccumulator window(rt::WindowConfig{});
  graph::DayGraph out;
  const auto ticks_per_day = static_cast<std::int64_t>(world.fill.size());
  const std::int64_t first_tick = util::day_start(world.fill_day) / 300;
  for (std::int64_t t = 0; t < ticks_per_day; ++t) {
    for (const auto& ev : world.fill[static_cast<std::size_t>(t)]) {
      window.append(ev, first_tick + t, world.fill_day);
    }
    window.assemble_window(first_tick + t, out, &filter);
  }
  std::int64_t tick = first_tick + ticks_per_day;
  for (auto _ : state) {
    state.PauseTiming();
    const std::int64_t lap = (tick - first_tick) / ticks_per_day;
    const auto at = static_cast<std::size_t>((tick - first_tick) % ticks_per_day);
    const util::Day day = world.fill_day + static_cast<util::Day>(lap);
    if (at == 0) window.close_day(day - 1);
    for (logs::ConnEvent ev : world.replay[at]) {
      ev.ts += (lap - 1) * util::kSecondsPerDay;
      window.append(ev, tick, day);
    }
    window.expire(tick);
    state.ResumeTiming();
    benchmark::DoNotOptimize(window.assemble_window(tick, out, &filter));
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RtWindowTick);

void BM_PeriodicityTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<util::TimePoint> times;
  util::Rng rng(3);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(static_cast<util::TimePoint>(t));
    t += 600.0 + rng.normal(0.0, 3.0);
  }
  const timing::PeriodicityDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.test(times));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PeriodicityTest)->Arg(16)->Arg(144)->Arg(1024);

void BM_LanlDayAnalysis(benchmark::State& state) {
  sim::LanlConfig config;
  config.n_hosts = 300;
  config.n_popular = 150;
  config.tail_per_day = 80;
  config.automated_tail_per_day = 4;
  config.server_tail_per_day = 40;
  sim::LanlScenario scenario(config);
  eval::LanlRunner runner(scenario);
  runner.bootstrap();
  const auto events =
      scenario.simulator().reduced_day(scenario.challenge_begin());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.analyze_events(events, scenario.challenge_begin()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_LanlDayAnalysis);

void BM_DetectorAnalyzeStream(benchmark::State& state) {
  // One operation day folded into the analysis chunk by chunk through the
  // streaming facade. arg = events per chunk; the sweep shows the chunked
  // path costs the same as one big batch.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  const auto chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    api::VectorSource source(day, &events, chunk);
    benchmark::DoNotOptimize(detector.analyze_stream(source, day));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectorAnalyzeStream)->Arg(256)->Arg(4096)->Arg(1 << 20);

void BM_DetectorIngestProfile(benchmark::State& state) {
  // Streaming profiling (bootstrap-month ingestion): O(distinct) memory,
  // so the per-event cost is the floor for multi-terabyte ingest.
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  for (auto _ : state) {
    api::VectorSource source(day, &events);
    benchmark::DoNotOptimize(detector.ingest(source).events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectorIngestProfile);

void BM_MetricsCounter(benchmark::State& state) {
  // The raw cost of one enabled counter increment: a relaxed load of the
  // enabled flag plus one uncontended relaxed fetch_add.
  obs::metrics().set_enabled(true);
  obs::Counter& counter = obs::metrics().counter("bench_scratch_total");
  for (auto _ : state) {
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounter);

void BM_MetricsCounterDisabled(benchmark::State& state) {
  // The disabled path every probe pays when observability is off: one
  // relaxed atomic load and a branch. This is the "near-no-op" the obs
  // layer promises.
  obs::metrics().set_enabled(false);
  obs::Counter& counter = obs::metrics().counter("bench_scratch_total");
  for (auto _ : state) {
    counter.add(1);
  }
  obs::metrics().set_enabled(true);
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterDisabled);

void day_analysis_obs(benchmark::State& state, bool metrics_enabled) {
  // Whole-day analysis with the metrics registry on vs off — the pair
  // behind the recorded metrics_overhead_ratio (< 1% is the obs-layer
  // budget at day granularity).
  sim::EnterpriseSimulator sim(bench_config(sim::Flavor::Proxy), {});
  const util::Day day = util::make_day(2014, 1, 2);
  const auto events = sim.reduced_day(day);
  api::Detector detector(core::PipelineConfig{}, sim.whois());
  obs::metrics().set_enabled(metrics_enabled);
  for (auto _ : state) {
    api::VectorSource source(day, &events, 4096);
    benchmark::DoNotOptimize(detector.analyze_stream(source, day));
  }
  obs::metrics().set_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}

void BM_DayAnalysisObsOn(benchmark::State& state) {
  day_analysis_obs(state, true);
}
BENCHMARK(BM_DayAnalysisObsOn);

void BM_DayAnalysisObsOff(benchmark::State& state) {
  day_analysis_obs(state, false);
}
BENCHMARK(BM_DayAnalysisObsOff);

void BM_BeliefPropagation(benchmark::State& state) {
  // A synthetic frontier: one seed host fanning out to chains of domains.
  graph::DayGraph graph;
  const int chains = static_cast<int>(state.range(0));
  for (int c = 0; c < chains; ++c) {
    for (int depth = 0; depth < 6; ++depth) {
      logs::ConnEvent ev;
      ev.ts = c * 1000 + depth;
      ev.host = "h" + std::to_string(c * 6 + depth);
      ev.domain = "d" + std::to_string(c * 6 + depth) + ".com";
      graph.add_event(ev);
      logs::ConnEvent link = ev;
      link.domain = "d" + std::to_string(c * 6 + depth + 1) + ".com";
      graph.add_event(link);
    }
  }
  graph.finalize();
  std::unordered_set<graph::DomainId> rare;
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) rare.insert(d);

  class FixedScorer final : public core::DomainScorer {
   public:
    bool detect_cc(graph::DomainId) const override { return false; }
    double similarity_score(graph::DomainId,
                            std::span<const graph::DomainId>) const override {
      return 0.9;
    }
  } scorer;

  std::vector<graph::HostId> seeds = {graph.find_host("h0")};
  core::BpConfig config;
  config.max_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::belief_propagation(graph, rare, seeds, {}, scorer, config));
  }
}
BENCHMARK(BM_BeliefPropagation)->Arg(4)->Arg(32);

/// Console output as usual, plus an in-memory copy of every finished run
/// for the machine-readable BENCH_perf.json record.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time_ns = 0.0;      ///< adjusted real time per iteration
    double items_per_second = 0.0;  ///< 0 when the bench reports no items
  };

  // google-benchmark < 1.8 exposes Run::error_occurred; 1.8+ replaced it
  // with the Skipped enum. Detect whichever member this libbenchmark has.
  template <typename R>
  static bool run_failed(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else if constexpr (requires { run.skipped; }) {
      return static_cast<int>(run.skipped) != 0;  // 0 == NotSkipped
    } else {
      return false;
    }
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run_failed(run)) continue;
      // One row per benchmark: drop _mean/_median aggregates and repeat
      // repetitions so cross-PR diffs stay unambiguous.
      if (run.run_type != Run::RT_Iteration) continue;
      if constexpr (requires { run.repetition_index; }) {
        if (run.repetition_index > 0) continue;
      }
      Entry entry;
      entry.name = run.benchmark_name();
      entry.real_time_ns = run.GetAdjustedRealTime();
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        entry.items_per_second = it->second;
      }
      entries.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Entry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      eid::bench::take_json_flag(argc, argv, "BENCH_perf.json");
  // A filtered run covers only a subset of benchmarks; writing it would
  // replace the whole tracked micro section and wipe the other
  // benchmarks' history, so --json only records full runs.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (json_path.empty()) return 0;
  if (filtered || reporter.entries.empty()) {
    std::fprintf(stderr,
                 "not writing %s: %s would clobber the full micro section — "
                 "rerun without --benchmark_filter to record\n",
                 json_path.c_str(),
                 reporter.entries.empty() ? "an empty run" : "a filtered run");
    return 0;
  }

  // Metrics overhead at day granularity: the enabled/disabled day-analysis
  // pair must stay within the obs layer's <1% budget.
  double obs_on_ns = 0.0;
  double obs_off_ns = 0.0;
  for (const auto& entry : reporter.entries) {
    if (entry.name == "BM_DayAnalysisObsOn") obs_on_ns = entry.real_time_ns;
    if (entry.name == "BM_DayAnalysisObsOff") obs_off_ns = entry.real_time_ns;
  }
  const double overhead_ratio =
      obs_off_ns > 0.0 ? obs_on_ns / obs_off_ns : 0.0;
  if (overhead_ratio > 1.01) {
    std::fprintf(stderr,
                 "warning: metrics-enabled day analysis is %.2f%% slower than "
                 "disabled (budget: 1%%)\n",
                 (overhead_ratio - 1.0) * 100.0);
  }

  std::ostringstream body;
  // Full double resolution: the file exists to catch sub-percent drift
  // across PRs, which 6-digit default formatting would round away.
  body << std::setprecision(17);
  body << "{\n    \"cpu_cores\": " << eid::bench::cpu_cores()
       << ",\n    \"metrics_overhead_ratio\": " << overhead_ratio
       << ",\n    \"benchmarks\": [";
  for (std::size_t i = 0; i < reporter.entries.size(); ++i) {
    const auto& entry = reporter.entries[i];
    body << (i == 0 ? "\n" : ",\n");
    body << "      {\"name\": \"" << entry.name << "\", \"real_time_ns\": "
         << entry.real_time_ns << ", \"items_per_second\": "
         << entry.items_per_second << "}";
  }
  body << "\n    ]\n  }";
  if (!eid::bench::write_json_section(json_path, "micro", body.str())) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote micro section -> %s\n", json_path.c_str());
  return 0;
}
