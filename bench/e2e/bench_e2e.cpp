// bench_e2e — the end-to-end benchmark: proxy TSV log bytes on disk ->
// DayReport + checkpoint, timed at the public boundary of every layer the
// bytes cross.
//
//   bench_e2e --workload nightly|backfill|rt_follow [--seed N]
//             [--seconds S] [--dir D] [--trace PATH]
//
// Each run sets itself up: simulate the AC world, train on January as
// eval::AcRunner does, write February as one proxy TSV file per day plus
// dhcp.tsv — one line in 1000 garbled at a seeded position — and compute
// the reference reports with a one-thread detector over the in-memory
// reduce_proxy output of the same records, reduced in the file source's
// chunks. It then replays the workload as a closed loop, one pass after
// another from the trained checkpoint, until --seconds of measured passes
// have run, and compares every report against the reference. An
// end-to-end run then sets up twice more: setup_s is the median of the
// three set-up times.
//
// Without --trace it reports the end-to-end metrics. With --trace it
// measures untraced passes, then traced ones, and reports the per-layer
// metrics; the bench's spans and the program's obs::TraceSink spans go to
// PATH as Chrome trace JSON. Every metric is printed as `name value unit`,
// then `digest <crc>` (of the reports, identical on every run of a workload
// and seed), and last one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../bench_common.h"
#include "api/detector.h"
#include "api/sources.h"
#include "core/report_json.h"
#include "eval/ac_runner.h"
#include "logs/files.h"
#include "logs/io.h"
#include "obs/trace.h"
#include "rt/engine.h"
#include "sim/ac.h"
#include "sources.h"
#include "spans.h"
#include "storage/delta.h"
#include "util/crc32.h"

namespace {

namespace fs = std::filesystem;
using namespace eid;
using e2e::Scope;
using e2e::SpanRecorder;
using e2e::WallClock;

enum class Drive { Nightly, Backfill, Follow };

struct Workload {
  const char* name;
  Drive drive;
  std::size_t hosts;
  int days;  ///< February 1 .. days
  core::Parallelism parallelism;
};

// Two fan-out ranges plus one day-commit worker: with the driving thread
// the multi-threaded workloads run three threads on the 4-core reference
// box, leaving a core to the rest of the machine (with three ranges the
// runs were slower and their spread under outside load wider).
constexpr core::Parallelism kOneThread{1, 1, 1};
constexpr core::Parallelism kThreeThreads{2, 2, 2};

const Workload kWorkloads[] = {
    {"nightly", Drive::Nightly, 800, 28, kOneThread},
    {"backfill", Drive::Backfill, 800, 28, kThreeThreads},
    {"rt_follow", Drive::Follow, 400, 2, kThreeThreads},
};

constexpr int kSetups = 3;
constexpr std::size_t kGarbleEvery = 1000;
constexpr std::uint64_t kGarbleSalt = 0x6a7b1e;
constexpr std::int64_t kTickSeconds = 300;
constexpr std::size_t kFullEvery = 7;
constexpr int kLoads = 10;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},      {"log_mb_per_s", "MB/s"}, {"day_s_p50", "s"},
    {"step_s_p50", "s"},   {"step_s_p95", "s"},      {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"logs.parse_reduce_s", "s"},
    {"logs.lines", "count"},
    {"logs.malformed", "count"},
    {"logs.events_out", "count"},
    {"logs.keep_ratio", "ratio"},
    {"graph.ingest_s", "s"},
    {"graph.chunks", "count"},
    {"core.finish_day_s", "s"},
    {"core.report_s", "s"},
    {"profile.commit_s", "s"},
    {"api.analyze_days_self_s", "s"},
    {"storage.save_s", "s"},
    {"storage.bytes", "B"},
    {"storage.frames", "count"},
    {"storage.load_s", "s"},
    {"rt.poll_self_s", "s"},
    {"rt.finish_s", "s"},
    {"rt.ticks", "count"},
    {"rt.emissions", "count"},
    {"rt.merge_extends", "count"},
    {"rt.merge_rebuilds", "count"},
    {"rt.partial_absorbs", "count"},
    {"rt.merge_extend_ratio", "ratio"},
    {"trace_overhead", "ratio"},
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Removes the run's working directory on every exit path.
class WorkDir {
 public:
  explicit WorkDir(fs::path path) : path_(std::move(path)) {
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Lengths of the intervals between consecutive marks, the last one
/// closed at `end`.
std::vector<double> intervals(const std::vector<WallClock::time_point>& marks,
                              WallClock::time_point end) {
  std::vector<double> out;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const WallClock::time_point until = i + 1 < marks.size() ? marks[i + 1] : end;
    out.push_back(e2e::seconds(until - marks[i]));
  }
  return out;
}

std::uint64_t size_or_zero(const fs::path& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Reduce a day's records the way api::TsvFileSource does: reduce_proxy
/// over consecutive chunks of kDefaultChunkEvents parsed records. The
/// chunking matters — reduce_proxy orders each chunk by timestamp, which
/// sets the host interning order, and cc_domains[].period_seconds follows
/// that order (a whole-day reduction reports another period on some days).
std::vector<logs::ConnEvent> reduce_like_file_source(
    std::span<const logs::ProxyRecord> records, const logs::DhcpTable& leases,
    const logs::ProxyReductionConfig& reduction) {
  std::vector<logs::ConnEvent> events;
  for (std::size_t at = 0; at < records.size(); at += api::kDefaultChunkEvents) {
    const std::size_t count =
        std::min(api::kDefaultChunkEvents, records.size() - at);
    std::vector<logs::ConnEvent> chunk =
        logs::reduce_proxy(records.subspan(at, count), leases, reduction);
    events.insert(events.end(), std::make_move_iterator(chunk.begin()),
                  std::make_move_iterator(chunk.end()));
  }
  return events;
}

std::string emission_line(const rt::IncidentEmission& e) {
  std::string out = std::to_string(e.incident_id) + '|' +
                    std::to_string(e.provisional) + '|' +
                    std::to_string(e.day) + '|' +
                    std::to_string(e.event_time) + '|' +
                    std::to_string(e.emission_time) + '|';
  for (const std::string& d : e.domains) out += d + ',';
  out += '|';
  for (const std::string& h : e.hosts) out += h + ',';
  return out + '\n';
}

// ---------------------------------------------------------------------------
// Set-up

struct World {
  std::unique_ptr<sim::AcScenario> scenario;  ///< its WHOIS db serves the runs
  std::vector<e2e::DayFile> files;
  logs::DhcpTable leases;  ///< read back from dhcp.tsv
  logs::ProxyReductionConfig reduction;
  core::SocSeeds seeds;
  fs::path trained;                    ///< checkpoint after January
  std::vector<std::string> reference;  ///< report JSON per day
  std::size_t garbled = 0;             ///< malformed lines injected
};

/// The canonical bench world (seed 11), with the browse tail scaled to the
/// host count. The run's seed reseeds
/// the intelligence oracle — training labels and IOC list, hence the
/// models and every detection. Traffic and campaigns stay the canonical
/// world's: reseeding them moves a day's log volume by about +-15%, and the
/// continuous workload's cost per day does not follow the volume, so its
/// metrics would measure the world instead of the code.
sim::AcConfig world_config(const Workload& workload, std::uint64_t seed) {
  sim::AcConfig config = bench::ac_config();
  config.tail_per_day = config.tail_per_day * workload.hosts / config.n_hosts;
  config.n_hosts = workload.hosts;
  config.oracle.seed ^= seed;
  return config;
}

World set_up(const Workload& workload, std::uint64_t seed, const fs::path& dir,
             Checks& checks) {
  World world;
  world.scenario =
      std::make_unique<sim::AcScenario>(world_config(workload, seed));
  sim::AcScenario& scenario = *world.scenario;
  sim::EnterpriseSimulator& simulator = scenario.simulator();

  world.trained = dir / "trained.state";
  {
    eval::AcRunner runner(scenario);
    runner.train();
    checks.expect(runner.detector().save_state(world.trained),
                  "save the trained checkpoint");
  }

  api::Detector reference(core::PipelineConfig{}, simulator.whois());
  checks.expect(reference.load_state(world.trained),
                "load the trained checkpoint");
  world.reduction = simulator.proxy_reduction_config();
  world.seeds.domains = scenario.ioc_seeds();

  util::Rng garble(seed ^ kGarbleSalt);
  for (int i = 0; i < workload.days; ++i) {
    const util::Day day = scenario.operation_begin() + i;
    sim::DayLogs logs = simulator.simulate_day(day);
    const fs::path path = dir / ("proxy-" + util::format_day(day) + ".tsv");
    std::vector<logs::ProxyRecord> kept;
    kept.reserve(logs.proxy.size());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      std::size_t victim = 0;
      for (std::size_t r = 0; r < logs.proxy.size(); ++r) {
        if (r % kGarbleEvery == 0) victim = r + garble.index(kGarbleEvery);
        std::string line = logs::format_proxy_line(logs.proxy[r]);
        if (r == victim) {
          // A torn write: the line loses its last field, so the parser
          // rejects it (a proxy line has exactly 11).
          line.resize(line.rfind('\t'));
          ++world.garbled;
        } else {
          kept.push_back(std::move(logs.proxy[r]));
        }
        line += '\n';
        out.write(line.data(), static_cast<std::streamsize>(line.size()));
      }
      out.flush();
      checks.expect(static_cast<bool>(out), "write " + path.string());
    }
    world.files.push_back({day, path});
    api::VectorSource events(
        day, reduce_like_file_source(kept, simulator.dhcp(), world.reduction));
    world.reference.push_back(
        core::day_report_to_json(reference.run_day(events, day, world.seeds)));
  }

  std::vector<logs::DhcpLease> leases;
  simulator.dhcp().for_each_lease(
      [&leases](const logs::DhcpLease& lease) { leases.push_back(lease); });
  checks.expect(logs::write_dhcp_file(dir / "dhcp.tsv", leases),
                "write dhcp.tsv");
  logs::FileReadStats dhcp_stats;
  for (logs::DhcpLease& lease :
       logs::read_dhcp_file(dir / "dhcp.tsv", &dhcp_stats)) {
    world.leases.add_lease(std::move(lease));
  }
  checks.expect(dhcp_stats.malformed == 0 && dhcp_stats.parsed == leases.size(),
                "read dhcp.tsv back");
  return world;
}

// ---------------------------------------------------------------------------
// Measured passes

/// One replay of the workload's days from the trained checkpoint.
struct Pass {
  double wall_s = 0.0;
  std::uint64_t bytes = 0;      ///< TSV bytes consumed
  std::vector<double> day_s;
  std::vector<double> step_s;
  std::map<std::string, double> layer;
  std::uint32_t digest = 0;     ///< report JSON (+ rt emissions)
};

struct Context {
  const Workload& workload;
  const World& world;
  fs::path state;             ///< the checkpoint the workload writes
  SpanRecorder* recorder;     ///< null for untraced passes
  Checks& checks;
};

api::Detector restored_detector(Context& ctx) {
  api::Detector detector(core::PipelineConfig{},
                         ctx.world.scenario->simulator().whois());
  ctx.checks.expect(detector.load_state(ctx.world.trained),
                    "restore the trained checkpoint");
  detector.set_parallelism(ctx.workload.parallelism);
  return detector;
}

/// Compare a pass's reports with the reference and fold them into the
/// pass digest.
void check_reports(Context& ctx, const std::vector<core::DayReport>& reports,
                   Pass& pass) {
  ctx.checks.expect(reports.size() == ctx.world.reference.size(),
                    std::string(ctx.workload.name) + ": one report per day");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::string report = core::day_report_to_json(reports[i]);
    pass.digest = util::crc32(report, pass.digest);
    const bool match =
        i < ctx.world.reference.size() && report == ctx.world.reference[i];
    ctx.checks.expect(match, std::string(ctx.workload.name) + ": report of " +
                                 util::format_day(reports[i].day) +
                                 " matches the reference");
    if (!match && ctx.checks.failed() == 1 && i < ctx.world.reference.size()) {
      std::fprintf(stderr, "  measured:  %s\n  reference: %s\n", report.c_str(),
                   ctx.world.reference[i].c_str());
    }
  }
}

void finish_pass(Context& ctx, const e2e::PullMeter& meter,
                 WallClock::time_point start, WallClock::time_point end,
                 Pass& pass) {
  pass.wall_s = e2e::seconds(end - start);
  pass.bytes = meter.bytes;
  pass.day_s = intervals(meter.day_starts, end);
  ctx.checks.expect(meter.malformed == ctx.world.garbled,
                    std::string(ctx.workload.name) +
                        ": every injected malformed line is rejected (" +
                        std::to_string(meter.malformed) + " of " +
                        std::to_string(ctx.world.garbled) + ")");
  pass.layer["logs.lines"] = static_cast<double>(meter.lines);
  pass.layer["logs.malformed"] = static_cast<double>(meter.malformed);
  pass.layer["logs.events_out"] = static_cast<double>(meter.events);
  pass.layer["logs.keep_ratio"] =
      meter.lines > 0 ? static_cast<double>(meter.events) /
                            static_cast<double>(meter.lines)
                      : 0.0;
}

/// Batch steps: the intervals between chunk hand-offs, from the start of
/// the pass to its end.
std::vector<double> chunk_steps(const e2e::PullMeter& meter,
                                WallClock::time_point start,
                                WallClock::time_point end) {
  std::vector<WallClock::time_point> marks{start};
  marks.insert(marks.end(), meter.chunk_marks.begin(), meter.chunk_marks.end());
  return intervals(marks, end);
}

/// Save the nightly checkpoint and tally what the save wrote: a delta
/// frame appended to the chain, or a full rewrite (compaction).
bool save_delta(api::Detector& detector, const fs::path& state, Pass& pass) {
  const fs::path chain = storage::delta_chain_path(state);
  const std::uint64_t before = size_or_zero(chain);
  const bool ok =
      detector.save_state_delta(state, api::CheckpointPolicy{kFullEvery});
  const std::uint64_t after = size_or_zero(chain);
  if (after > before) {
    pass.layer["storage.bytes"] += static_cast<double>(after - before);
    pass.layer["storage.frames"] += 1;
  } else {
    pass.layer["storage.bytes"] += static_cast<double>(size_or_zero(state));
  }
  return ok;
}

// The deployment's nightly job: per day, TsvFileSource -> run_day ->
// save_state_delta. Traced passes compose run_day from its public parts
// (begin_day, add_chunk, finish_day, report_day, update_histories) so each
// is timed; the reports are identical.
Pass nightly_pass(Context& ctx) {
  api::Detector detector = restored_detector(ctx);
  std::error_code ec;
  fs::remove(ctx.state, ec);
  fs::remove(storage::delta_chain_path(ctx.state), ec);
  SpanRecorder* rec = ctx.recorder;
  e2e::PullMeter meter;
  meter.recorder = rec;
  Pass pass;
  std::vector<core::DayReport> reports;
  std::size_t chunks = 0;

  const WallClock::time_point start = WallClock::now();
  for (const e2e::DayFile& file : ctx.world.files) {
    e2e::DayFilesSource source(std::span(&file, 1), ctx.world.leases,
                               ctx.world.reduction, meter);
    bool saved = false;
    if (rec == nullptr) {
      reports.push_back(detector.run_day(source, file.day, ctx.world.seeds));
      saved = save_delta(detector, ctx.state, pass);
    } else {
      const Scope day(rec, "nightly.day", -1, file.day);
      meter.parent = day.index();
      core::Pipeline& pipeline = detector.pipeline();
      core::DayAccumulator accumulator = pipeline.begin_day(file.day);
      while (std::optional<api::EventChunk> chunk = source.next_chunk()) {
        const Scope span(rec, "graph.ingest", day.index(), file.day);
        accumulator.add_chunk(chunk->events);
        ++chunks;
      }
      core::DayAnalysis analysis;
      {
        const Scope span(rec, "core.finish_day", day.index(), file.day);
        analysis = pipeline.finish_day(std::move(accumulator));
      }
      {
        const Scope span(rec, "core.report", day.index(), file.day);
        reports.push_back(pipeline.report_day(analysis, ctx.world.seeds));
      }
      {
        const Scope span(rec, "profile.commit", day.index(), file.day);
        pipeline.update_histories(analysis.graph);
      }
      const Scope span(rec, "storage.save", day.index(), file.day);
      saved = save_delta(detector, ctx.state, pass);
    }
    ctx.checks.expect(saved, "nightly: save_state_delta of " +
                                 util::format_day(file.day));
  }
  const WallClock::time_point end = WallClock::now();

  finish_pass(ctx, meter, start, end, pass);
  pass.step_s = chunk_steps(meter, start, end);
  check_reports(ctx, reports, pass);
  pass.layer["graph.chunks"] = static_cast<double>(chunks);
  return pass;
}

// Archived-log replay: all days as one day-tagged stream through the
// day-pipelined multi-day verb, then one full checkpoint.
Pass backfill_pass(Context& ctx) {
  api::Detector detector = restored_detector(ctx);
  SpanRecorder* rec = ctx.recorder;
  e2e::PullMeter meter;
  meter.recorder = rec;
  e2e::DayFilesSource source(ctx.world.files, ctx.world.leases,
                             ctx.world.reduction, meter);
  Pass pass;
  std::vector<core::DayReport> reports;
  std::size_t chunks = 0;
  bool saved = false;

  const WallClock::time_point start = WallClock::now();
  if (rec == nullptr) {
    reports = detector.run_days(source, ctx.world.seeds);
    saved = detector.save_state(ctx.state);
  } else {
    {
      const Scope root(rec, "api.analyze_days", -1);
      meter.parent = root.index();
      core::Pipeline& pipeline = detector.pipeline();
      const int parent = root.index();
      // With pipeline_depth 2 this runs on a worker, never concurrently
      // with another commit (api::DayAnalysisFn).
      chunks = detector
                   .analyze_days(source,
                                 [&](util::Day day,
                                     const core::DayAnalysis& analysis) {
                                   const Scope span(rec, "core.report", parent,
                                                    day);
                                   reports.push_back(pipeline.report_day(
                                       analysis, ctx.world.seeds));
                                 })
                   .chunks;
    }
    const Scope span(rec, "storage.save", -1);
    saved = detector.save_state(ctx.state);
  }
  const WallClock::time_point end = WallClock::now();

  ctx.checks.expect(saved, "backfill: save_state");
  pass.layer["storage.bytes"] = static_cast<double>(size_or_zero(ctx.state));
  finish_pass(ctx, meter, start, end, pass);
  pass.step_s = chunk_steps(meter, start, end);
  check_reports(ctx, reports, pass);
  pass.layer["graph.chunks"] = static_cast<double>(chunks);
  return pass;
}

// Continuous mode: the days as one stream through rt::ContinuousEngine on
// a ReplayClock; a step is one poll that crosses a tick boundary.
Pass follow_pass(Context& ctx) {
  api::Detector detector = restored_detector(ctx);
  SpanRecorder* rec = ctx.recorder;
  rt::EngineConfig config;
  config.window.tick_seconds = kTickSeconds;
  config.provisional_bp = true;
  config.seeds = ctx.world.seeds;
  rt::ReplayClock clock;
  rt::ContinuousEngine engine(detector, clock, config);
  e2e::PullMeter meter;
  meter.recorder = rec;
  e2e::DayFilesSource files(ctx.world.files, ctx.world.leases,
                            ctx.world.reduction, meter);
  e2e::TickSplitSource split(files, config.window);
  Pass pass;

  const WallClock::time_point start = WallClock::now();
  while (!split.exhausted()) {
    const WallClock::time_point poll_start = WallClock::now();
    {
      const Scope poll(rec, "rt.poll", -1, config.window.tick_of(clock.now()));
      meter.parent = poll.index();
      engine.poll(split);
    }
    const WallClock::time_point poll_end = WallClock::now();
    if (split.take_boundary()) {
      pass.step_s.push_back(e2e::seconds(poll_end - poll_start));
    }
  }
  {
    const Scope span(rec, "rt.finish", -1);
    engine.finish();
  }
  const WallClock::time_point end = WallClock::now();

  finish_pass(ctx, meter, start, end, pass);
  check_reports(ctx, engine.day_reports(), pass);
  for (const rt::IncidentEmission& emission : engine.emissions()) {
    pass.digest = util::crc32(emission_line(emission), pass.digest);
  }
  const rt::EngineStats& stats = engine.stats();
  pass.layer["graph.chunks"] = static_cast<double>(stats.chunks);
  pass.layer["rt.ticks"] = static_cast<double>(stats.ticks_closed);
  pass.layer["rt.emissions"] = static_cast<double>(
      stats.provisional_emissions + stats.finalized_emissions);
  pass.layer["rt.merge_extends"] =
      static_cast<double>(stats.window_merge_extends);
  pass.layer["rt.merge_rebuilds"] =
      static_cast<double>(stats.window_merge_rebuilds);
  pass.layer["rt.partial_absorbs"] = static_cast<double>(stats.partial_absorbs);
  const std::size_t merges =
      stats.window_merge_extends + stats.window_merge_rebuilds;
  pass.layer["rt.merge_extend_ratio"] =
      merges > 0 ? static_cast<double>(stats.window_merge_extends) /
                       static_cast<double>(merges)
                 : 0.0;
  return pass;
}

/// Passes until `seconds` of measured pass time have run (at least one).
std::vector<Pass> measure(Context& ctx, double seconds) {
  std::vector<Pass> passes;
  double elapsed = 0.0;
  while (passes.empty() || elapsed < seconds) {
    const std::size_t first_span =
        ctx.recorder != nullptr ? ctx.recorder->size() : 0;
    Pass pass;
    switch (ctx.workload.drive) {
      case Drive::Nightly: pass = nightly_pass(ctx); break;
      case Drive::Backfill: pass = backfill_pass(ctx); break;
      case Drive::Follow: pass = follow_pass(ctx); break;
    }
    if (ctx.recorder != nullptr) {
      const auto totals =
          ctx.recorder->totals(first_span, ctx.recorder->size());
      const auto total = [&totals](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.first;
      };
      const auto self = [&totals](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.second;
      };
      pass.layer["logs.parse_reduce_s"] = total("logs.parse_reduce");
      pass.layer["graph.ingest_s"] = total("graph.ingest");
      pass.layer["core.finish_day_s"] = total("core.finish_day");
      pass.layer["core.report_s"] = total("core.report");
      pass.layer["profile.commit_s"] = total("profile.commit");
      pass.layer["api.analyze_days_self_s"] = self("api.analyze_days");
      pass.layer["storage.save_s"] = total("storage.save");
      pass.layer["rt.poll_self_s"] = self("rt.poll");
      pass.layer["rt.finish_s"] = total("rt.finish");
    }
    if (!passes.empty()) {
      ctx.checks.expect(pass.digest == passes.front().digest,
                        std::string(ctx.workload.name) +
                            ": every pass produces the same reports");
    }
    elapsed += pass.wall_s;
    passes.push_back(std::move(pass));
  }
  return passes;
}

/// Per unit (a day, or a step at the same position in the replay), the
/// median over passes. Passes replay identical work, so a burst of outside
/// load that slows one pass's unit is voted out by the others.
std::vector<double> unit_medians(const std::vector<Pass>& passes,
                                 std::vector<double> Pass::*units) {
  std::size_t count = (passes.front().*units).size();
  for (const Pass& pass : passes) count = std::min(count, (pass.*units).size());
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> samples;
    for (const Pass& pass : passes) samples.push_back((pass.*units)[i]);
    out.push_back(median(samples));
  }
  return out;
}

/// TSV megabytes per second of a pass made of each day's median time.
double mb_per_s(const std::vector<Pass>& passes) {
  double seconds = 0.0;
  for (const double day : unit_medians(passes, &Pass::day_s)) seconds += day;
  return static_cast<double>(passes.front().bytes) / 1e6 / seconds;
}

double layer_median(const std::vector<Pass>& passes, const std::string& name) {
  std::vector<double> values;
  for (const Pass& pass : passes) {
    const auto it = pass.layer.find(name);
    values.push_back(it == pass.layer.end() ? 0.0 : it->second);
  }
  return median(values);
}

/// Median of kLoads chain-aware restores of the checkpoint the workload
/// wrote, each into a fresh detector; 0 when it writes none.
double load_seconds(Context& ctx) {
  if (ctx.workload.drive == Drive::Follow) return 0.0;
  std::vector<double> times;
  for (int i = 0; i < kLoads; ++i) {
    api::Detector detector(core::PipelineConfig{},
                           ctx.world.scenario->simulator().whois());
    storage::ChainLoadReport chain;
    const WallClock::time_point start = WallClock::now();
    const bool ok = detector.load_state(ctx.state, &chain);
    times.push_back(e2e::seconds(WallClock::now() - start));
    ctx.checks.expect(ok && !chain.degraded,
                      "load_state of the written checkpoint");
  }
  return median(times);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

bool write_trace(const fs::path& path, const eid::obs::TraceSink& sink,
                 const SpanRecorder& recorder) {
  // Splice the bench spans into the program's trace-event array.
  std::string json = sink.to_chrome_json();
  const std::string bench = recorder.chrome_events();
  const std::size_t open = json.find('[');
  if (open != std::string::npos && !bench.empty()) {
    const bool program_empty = json.compare(open + 1, 1, "]") == 0;
    json.insert(open + 1, "\n" + bench + (program_empty ? "\n" : ","));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json << '\n';
  out.flush();
  return static_cast<bool>(out);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 11;
  double seconds = 10.0;
  fs::path dir;
  fs::path trace;  ///< empty: end-to-end run
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      const auto [ptr, ec] = std::from_chars(
          value.data(), value.data() + value.size(), args.seed);
      if (ec != std::errc() || ptr != value.data() + value.size()) return false;
    } else if (flag == "--seconds") {
      const auto [ptr, ec] = std::from_chars(
          value.data(), value.data() + value.size(), args.seconds);
      if (ec != std::errc() || ptr != value.data() + value.size() ||
          !(args.seconds > 0)) {
        return false;
      }
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace") {
      args.trace = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || args.workload == nullptr) return false;
  if (args.dir.empty()) {
    args.dir = fs::temp_directory_path() /
               ("bench_e2e-" + std::to_string(::getpid()));
  }
  return true;
}

int run(const Args& args) {
  const Workload& workload = *args.workload;
  const WorkDir work(args.dir);
  Checks checks;

  WallClock::time_point start = WallClock::now();
  const World world = set_up(workload, args.seed, work.path(), checks);
  std::vector<double> setup_times{e2e::seconds(WallClock::now() - start)};
  std::fprintf(stderr, "bench_e2e: %s seed %llu: set-up %.2fs, %zu files, "
               "%zu malformed lines injected\n",
               workload.name, static_cast<unsigned long long>(args.seed),
               setup_times.front(), world.files.size(), world.garbled);

  Context ctx{workload, world, work.path() / "detector.state", nullptr, checks};
  const std::vector<Pass> untraced = measure(ctx, args.seconds);

  std::vector<std::pair<const Metric*, double>> values;
  if (args.trace.empty()) {
    // Read before the set-up repeats: the worlds they free would leave the
    // peak to heap fragmentation.
    const double rss_mb = peak_rss_mb();
    const fs::path repeat_dir = work.path() / "repeat";
    fs::create_directories(repeat_dir);
    for (int i = 1; i < kSetups; ++i) {
      start = WallClock::now();
      // Bound to a name so that freeing it stays out of the timing.
      const World repeat = set_up(workload, args.seed, repeat_dir, checks);
      setup_times.push_back(e2e::seconds(WallClock::now() - start));
    }
    const std::vector<double> days = unit_medians(untraced, &Pass::day_s);
    const std::vector<double> steps = unit_medians(untraced, &Pass::step_s);
    const double e2e_values[] = {
        median(setup_times),       mb_per_s(untraced),
        median(days),              median(steps),
        percentile(steps, 0.95),   rss_mb,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      values.emplace_back(&kEndToEnd[i], e2e_values[i]);
    }
    std::fprintf(stderr,
                 "bench_e2e: %zu passes of %zu days (%.1f MB), %zu steps\n",
                 untraced.size(), days.size(),
                 static_cast<double>(untraced.front().bytes) / 1e6,
                 steps.size());
  } else {
    const double load_s = load_seconds(ctx);
    SpanRecorder recorder;
    eid::obs::TraceSink sink;
    ctx.recorder = &recorder;
    api::Detector::set_trace_sink(&sink);
    const std::vector<Pass> traced = measure(ctx, args.seconds);
    api::Detector::set_trace_sink(nullptr);
    checks.expect(traced.front().digest == untraced.front().digest,
                  "traced passes produce the untraced reports");
    checks.expect(write_trace(args.trace, sink, recorder),
                  "write the trace to " + args.trace.string());
    for (const Metric& metric : kPerLayer) {
      const std::string name = metric.name;
      double value = 0.0;
      if (name == "storage.bytes" || name == "storage.frames") {
        value = layer_median(untraced, name);
      } else if (name == "storage.load_s") {
        value = load_s;
      } else if (name == "trace_overhead") {
        value = mb_per_s(traced) / mb_per_s(untraced);
      } else {
        value = layer_median(traced, name);
      }
      values.emplace_back(&metric, value);
    }
  }

  for (const auto& [metric, value] : values) {
    std::printf("%s %s %s\n", metric->name, number(value).c_str(),
                metric->unit);
  }
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", untraced.front().digest);
  std::printf("digest %s\n", digest);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& [metric, value] = values[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metric->name, number(value).c_str(),
                metric->unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload nightly|backfill|rt_follow "
                 "[--seed N] [--seconds S] [--dir D] [--trace PATH]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
