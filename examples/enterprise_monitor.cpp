// Daily SOC monitor: the deployment the paper runs in §VI. Trains on one
// month of proxy logs, then emits a daily triage report for the operation
// month — potential C&C domains, the no-hint community expansion, and the
// IOC-seeded expansion — ordered by suspiciousness for analyst review.
//
// Usage: enterprise_monitor [days=7] [tc=0.4] [ts=0.33] [--state <path>]
//                           [--help]
//
// --state <path> makes the monitor durable: the detector state
// (histories, trained models, counters) is checkpointed to <path> after
// every completed day via the storage subsystem, and an existing
// checkpoint is restored on startup (skipping retraining when the saved
// models are ready) — kill the process mid-month and restart it to resume.
// Daily saves append O(day) delta frames to <path>.delta and compact into
// a fresh full checkpoint every --delta-every saves (see
// src/storage/FORMAT.md); restart replays base + chain bit-identically.
//
// --standby turns the process into a hot standby (requires --state and
// --follow): instead of ingesting the log it re-loads the primary's base
// checkpoint + delta chain whenever either file changes (the same load a
// restart does), and takes over the live --follow tail when the
// primary's heartbeat file (<state>.hb, touched by the primary every
// poll) goes stale for --stale-after seconds. Takeover
// re-reads the tailed day's log from the start — histories only advance
// at day close, so the rebuilt day report is bit-identical to the one the
// uninterrupted primary would have produced.
//
// --follow <path> switches to real-time continuous mode after training:
// instead of walking simulated operation days, the monitor tails <path>
// (a growing DNS-flavor TSV log) through the rt::ContinuousEngine,
// re-scoring a sliding window every --tick seconds and printing
// provisional incidents live as they cross the detection thresholds —
// with the authoritative (batch-identical) day report at day close. Tick
// evaluations assemble the window graph from flat sealed bucket segments
// (O(window state) per tick, growing or sliding).
//
// --metrics-out <path> keeps a Prometheus text-exposition snapshot of the
// process metrics registry at <path> (atomic tmp + rename; point the
// node-exporter textfile collector at it). --trace-out <path> writes a
// Chrome trace-event JSON of every pipeline/rt span — open it in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Batch mode rewrites
// both after every day; --follow refreshes them every ~2 s of wall time.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/sources.h"
#include "eval/ac_runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/engine.h"
#include "rt/standby.h"
#include "storage/delta.h"
#include "storage/state.h"

namespace {

using namespace eid;

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [days] [tc] [ts] [--state <path>]\n"
      "\n"
      "  days     operation days to monitor (default 7, >= 1)\n"
      "  tc       C&C detection threshold Tc (default 0.4)\n"
      "  ts       similarity threshold Ts (default 0.33)\n"
      "  --state <path>  checkpoint the detector to <path> after each day\n"
      "                  and restore from it on startup when present\n"
      "  --delta-every <n>  compact the delta chain into a fresh full\n"
      "                     checkpoint every n saves; 1 = always save full\n"
      "                     (default 7)\n"
      "\n"
      "failover (see also src/storage/FORMAT.md):\n"
      "  --standby           run as a hot standby: re-load the primary's\n"
      "                      checkpoint (--state) whenever it changes and take\n"
      "                      over the --follow tail when its heartbeat goes\n"
      "                      stale\n"
      "  --stale-after <sec> heartbeat age that triggers takeover\n"
      "                      (default 10)\n"
      "\n"
      "real-time continuous mode (replaces the simulated day walk):\n"
      "  --follow <path>     tail a growing DNS-flavor TSV log live\n"
      "  --follow-day <day>  day tag for the tailed file (util::Day number;\n"
      "                      default: first operation day)\n"
      "  --tick <seconds>    micro-batch tick size (default 300; must tile\n"
      "                      the 86400 s day)\n"
      "  --rt-window <sec>   sliding evidence window (default 86400; whole\n"
      "                      number of ticks)\n"
      "  --idle-exit <n>     exit after n consecutive empty polls\n"
      "                      (default 0 = follow forever)\n"
      "  --poll-ms <ms>      sleep between empty polls (default 200)\n"
      "\n"
      "observability:\n"
      "  --metrics-out <path>  keep a Prometheus text snapshot of the\n"
      "                        process metrics at <path> (rewritten per day,\n"
      "                        or every ~2 s in --follow mode)\n"
      "  --trace-out <path>    write pipeline/rt spans as Chrome\n"
      "                        trace-event JSON to <path> (Perfetto-viewable)\n"
      "  --help   this message\n",
      argv0);
}

/// Atomic (tmp + rename) rewrite of the Prometheus metrics file, so a
/// scraper never reads a torn exposition.
bool write_metrics_file(const std::string& path) {
  const std::string body = obs::to_prometheus(obs::metrics().snapshot());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << body;
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

/// Sim-time point as "YYYY-MM-DD hh:mm:ss" for live emission lines.
std::string format_time(util::TimePoint t) {
  const util::Day day = util::day_of(t);
  const std::int64_t s = t - util::day_start(day);
  char clock[16];
  std::snprintf(clock, sizeof(clock), " %02lld:%02lld:%02lld",
                static_cast<long long>(s / 3600),
                static_cast<long long>((s / 60) % 60),
                static_cast<long long>(s % 60));
  return util::format_day(day) + clock;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out;
}

bool parse_int_arg(const char* text, int min_value, int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out >= min_value;
}

bool parse_double_arg(const char* text, double& out) {
  // strtod (from_chars<double> availability varies); require full consume.
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end == text + std::strlen(text) && end != text;
}

/// Everything the live-tail loop needs, shared between a primary started
/// with --follow and a standby that just took over.
struct FollowSetup {
  std::string follow_path;
  std::string state_path;  ///< empty = not durable
  util::Day day = 0;
  int tick_seconds = 300;
  int window_seconds = 86400;
  int idle_exit = 0;
  int poll_ms = 200;
  std::size_t delta_every = 7;
  /// Takeover: the failed primary's incident store to adopt (may be null).
  core::IncidentStore* adopt_incidents = nullptr;
};

/// The real-time continuous loop: tail the growing TSV through the
/// sliding-window engine, heartbeating and delta-checkpointing when
/// durable. Sim time is driven by the event stream (ReplayClock), so a
/// replayed file runs at hardware speed and a live tail ticks as its
/// collector writes.
int run_follow(api::Detector& detector, const core::SocSeeds& seeds,
               const FollowSetup& setup,
               const std::function<void()>& flush_observability) {
  rt::EngineConfig engine_config;
  engine_config.window.tick_seconds = setup.tick_seconds;
  engine_config.window.window_seconds = setup.window_seconds;
  engine_config.seeds = seeds;
  if (!engine_config.window.valid()) {
    std::fprintf(stderr,
                 "error: tick=%ds window=%ds invalid (tick must tile the "
                 "86400 s day; window a whole number of ticks)\n",
                 setup.tick_seconds, setup.window_seconds);
    return 1;
  }

  api::TsvFileSource source(setup.follow_path, setup.day,
                            logs::DnsReductionConfig{});
  source.set_tail(true);
  rt::ReplayClock clock;
  rt::ContinuousEngine engine(detector, clock, engine_config);
  if (setup.adopt_incidents != nullptr) {
    engine.restore_incidents(std::move(*setup.adopt_incidents));
  }
  bool checkpoint_dirty = false;
  engine.set_emission_sink([&checkpoint_dirty](
                               const rt::IncidentEmission& emission) {
    checkpoint_dirty = true;
    std::printf("[%s] %s incident #%d (%s): latency %llds  domains=[%s]"
                "  hosts=[%s]\n",
                format_time(emission.emission_time).c_str(),
                emission.provisional ? "PROVISIONAL" : "FINAL",
                emission.incident_id,
                emission.new_incident ? "new" : "grew",
                static_cast<long long>(emission.latency_seconds),
                join(emission.domains).c_str(), join(emission.hosts).c_str());
    std::fflush(stdout);
  });
  engine.set_day_sink([&checkpoint_dirty](const core::DayReport& report) {
    checkpoint_dirty = true;
    std::printf("[%s] day closed: events=%zu cc=%zu nohint=%zu "
                "sochints=%zu (authoritative report, bit-identical to "
                "batch run_day)\n",
                util::format_day(report.day).c_str(), report.events,
                report.cc_domains.size(), report.nohint.domains.size(),
                report.sochints.domains.size());
    std::fflush(stdout);
  });

  const api::CheckpointPolicy policy{setup.delta_every};
  const auto save_checkpoint = [&]() -> bool {
    api::CheckpointExtras extras;
    extras.has_cursor = true;
    extras.cursor_day = setup.day;
    extras.cursor_offset = source.stats().byte_offset;
    extras.incidents = &engine.incidents();
    storage::LoadStatus status;
    if (!detector.save_state_delta(setup.state_path, policy, &status,
                                   extras)) {
      std::fprintf(stderr, "warning: checkpoint failed: %s — %s\n",
                   storage::load_error_name(status.error),
                   status.detail.c_str());
      return false;
    }
    checkpoint_dirty = false;
    return true;
  };

  std::printf("following %s (day %s, tick %ds, window %ds)...\n",
              setup.follow_path.c_str(), util::format_day(setup.day).c_str(),
              setup.tick_seconds, setup.window_seconds);
  int idle = 0;
  auto last_flush = std::chrono::steady_clock::now();
  while (setup.idle_exit == 0 || idle < setup.idle_exit) {
    if (engine.poll(source) == 0) {
      ++idle;
      std::this_thread::sleep_for(std::chrono::milliseconds(setup.poll_ms));
    } else {
      idle = 0;
    }
    if (!setup.state_path.empty()) {
      rt::touch_heartbeat(rt::heartbeat_path(setup.state_path));
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_flush >= std::chrono::seconds(2)) {
      flush_observability();
      if (!setup.state_path.empty() && checkpoint_dirty) save_checkpoint();
      last_flush = now;
    }
  }
  engine.finish();
  flush_observability();
  const rt::EngineStats& stats = engine.stats();
  std::printf("\nfollow stats: %zu events in %zu chunks, %zu ticks closed "
              "(%zu evaluated), %zu day(s) closed, %zu provisional + %zu "
              "finalized emission(s), peak buffer %zu raw events "
              "(cursor at byte %llu, %zu rotation(s), %zu transient "
              "error(s))\n",
              stats.events, stats.chunks, stats.ticks_closed,
              stats.evaluations, stats.days_closed,
              stats.provisional_emissions, stats.finalized_emissions,
              stats.peak_buffered_events,
              static_cast<unsigned long long>(source.stats().byte_offset),
              source.stats().rotations, source.stats().transient_errors);
  std::printf("window: %zu segments sealed, %zu segment reads, "
              "%zu evaluations with the front kept, %zu moved, "
              "%zu sealed events at exit\n",
              stats.buckets_sealed, stats.partial_absorbs,
              stats.window_merge_extends, stats.window_merge_rebuilds,
              stats.cached_partial_events);
  if (!setup.state_path.empty()) {
    if (save_checkpoint()) {
      std::printf("[checkpoint] state saved to %s\n",
                  setup.state_path.c_str());
    }
  }
  flush_observability();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 7;
  double tc = 0.4;
  double ts = 0.33;
  std::string state_path;
  std::string follow_path;
  std::string metrics_path;
  std::string trace_path;
  int follow_day = 0;  // 0 = default to the first operation day
  int tick_seconds = 300;
  int window_seconds = 86400;
  int idle_exit = 0;
  int poll_ms = 200;
  bool standby = false;
  int delta_every = 7;
  int stale_after = 10;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(arg, "--state") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --state needs a path\n");
        print_usage(argv[0]);
        return 1;
      }
      state_path = argv[++i];
      continue;
    }
    if (std::strcmp(arg, "--follow") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --follow needs a path\n");
        print_usage(argv[0]);
        return 1;
      }
      follow_path = argv[++i];
      continue;
    }
    if (std::strcmp(arg, "--standby") == 0) {
      standby = true;
      continue;
    }
    if (std::strcmp(arg, "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --metrics-out needs a path\n");
        print_usage(argv[0]);
        return 1;
      }
      metrics_path = argv[++i];
      continue;
    }
    if (std::strcmp(arg, "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace-out needs a path\n");
        print_usage(argv[0]);
        return 1;
      }
      trace_path = argv[++i];
      continue;
    }
    const auto int_flag = [&](const char* name, int min_value,
                              int& out) -> int {
      if (std::strcmp(arg, name) != 0) return 0;  // not this flag
      if (i + 1 >= argc || !parse_int_arg(argv[++i], min_value, out)) {
        std::fprintf(stderr, "error: %s needs an integer >= %d\n", name,
                     min_value);
        return -1;
      }
      return 1;
    };
    int matched = 0;
    if ((matched = int_flag("--follow-day", 1, follow_day)) != 0 ||
        (matched = int_flag("--tick", 1, tick_seconds)) != 0 ||
        (matched = int_flag("--rt-window", 1, window_seconds)) != 0 ||
        (matched = int_flag("--idle-exit", 1, idle_exit)) != 0 ||
        (matched = int_flag("--poll-ms", 1, poll_ms)) != 0 ||
        (matched = int_flag("--delta-every", 1, delta_every)) != 0 ||
        (matched = int_flag("--stale-after", 1, stale_after)) != 0) {
      if (matched < 0) return 1;
      continue;
    }
    bool ok = true;
    switch (positional++) {
      case 0: ok = parse_int_arg(arg, 1, days); break;
      case 1: ok = parse_double_arg(arg, tc); break;
      case 2: ok = parse_double_arg(arg, ts); break;
      default: ok = false; break;
    }
    if (!ok) {
      std::fprintf(stderr, "error: bad argument \"%s\"\n", arg);
      print_usage(argv[0]);
      return 1;
    }
  }

  // Observability sinks, live for the whole process so training, the day
  // walk and --follow all land in one timeline.
  obs::TraceSink trace_sink;
  if (!trace_path.empty()) api::Detector::set_trace_sink(&trace_sink);
  const auto flush_observability = [&] {
    if (!metrics_path.empty() && !write_metrics_file(metrics_path)) {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                   metrics_path.c_str());
    }
    if (!trace_path.empty() && !trace_sink.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "warning: cannot write trace to %s\n",
                   trace_path.c_str());
    }
  };

  sim::AcConfig world;
  world.n_hosts = 400;
  world.n_popular = 200;
  world.tail_per_day = 120;
  world.automated_tail_per_day = 6;
  world.grayware_per_day = 2;
  world.campaigns_per_week = 5.0;
  sim::AcScenario scenario(world);

  eval::AcRunnerConfig runner_config;
  runner_config.pipeline.cc_threshold = tc;
  runner_config.pipeline.sim_threshold = ts;
  eval::AcRunner runner(scenario, runner_config);
  api::Detector& detector = runner.detector();

  if (standby) {
    if (state_path.empty() || follow_path.empty()) {
      std::fprintf(stderr, "error: --standby requires --state and --follow\n");
      return 1;
    }
    core::SocSeeds seeds;
    seeds.domains = scenario.ioc_seeds();
    rt::StandbyConfig standby_config;
    standby_config.state_path = state_path;
    standby_config.stale_after_seconds = stale_after;
    rt::StandbyReplica replica(detector, standby_config);
    std::printf("standby: following checkpoint %s (takeover after "
                "%ds of heartbeat silence)\n",
                state_path.c_str(), stale_after);
    storage::LoadStatus status;
    if (replica.start(&status)) {
      std::printf("[standby] base + chain loaded: at seq %llu, %zu operation "
                  "day(s) completed\n",
                  static_cast<unsigned long long>(replica.last_seq()),
                  detector.days_operated());
    } else {
      std::printf("[standby] no checkpoint yet (%s) — waiting for the "
                  "primary's first save\n",
                  storage::load_error_name(status.error));
    }
    std::fflush(stdout);
    int idle = 0;
    while (true) {
      const std::size_t reloads = replica.stats().full_reloads;
      const std::size_t applied = replica.poll();
      const bool rebased = replica.stats().full_reloads != reloads;
      if (applied > 0 || rebased) {
        idle = 0;
        std::printf("[standby] %s, now at seq %llu, %zu operation day(s) "
                    "completed\n",
                    rebased ? "loaded a new base" : "loaded new frame(s)",
                    static_cast<unsigned long long>(replica.last_seq()),
                    detector.days_operated());
        std::fflush(stdout);
      }
      const double age =
          rt::heartbeat_age_seconds(rt::heartbeat_path(state_path));
      if (replica.started() && detector.pipeline().models_ready() &&
          age > stale_after) {
        std::printf("[failover] primary heartbeat stale (%.1fs > %ds) — "
                    "taking over the tail of %s\n",
                    age, stale_after, follow_path.c_str());
        std::fflush(stdout);
        core::IncidentStore incidents;
        const bool adopted = replica.take_incidents(incidents);
        FollowSetup setup;
        setup.follow_path = follow_path;
        setup.state_path = state_path;
        // Takeover re-reads the cursor day's log from offset 0: histories
        // only advance at day close, so replaying the whole day on top of
        // the replicated state reproduces the primary's would-have-been
        // report bit-identically (the cursor byte offset in the frames is
        // operator-visible progress, not a resume point).
        setup.day = replica.has_cursor()
                        ? static_cast<util::Day>(replica.cursor_day())
                        : (follow_day > 0
                               ? static_cast<util::Day>(follow_day)
                               : scenario.operation_begin());
        setup.tick_seconds = tick_seconds;
        setup.window_seconds = window_seconds;
        setup.idle_exit = idle_exit;
        setup.poll_ms = poll_ms;
        setup.delta_every = static_cast<std::size_t>(delta_every);
        setup.adopt_incidents = adopted ? &incidents : nullptr;
        return run_follow(detector, seeds, setup, flush_observability);
      }
      if (applied == 0 && !rebased) {
        ++idle;
        if (idle_exit > 0 && idle >= idle_exit) {
          std::printf("[standby] idle limit reached without takeover — "
                      "exiting\n");
          return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      }
    }
  }

  bool restored = false;
  if (!state_path.empty()) {
    // Peek at the checkpoint before applying it: a snapshot taken before
    // finalize_training() cannot be resumed by this monitor (applying its
    // histories and then retraining would double-ingest January), so such
    // a file is ignored rather than half-used.
    storage::LoadStatus status;
    storage::ChainLoadReport chain;
    auto state = storage::load_detector_state_chain(state_path, &chain,
                                                    &status);
    if (state && state->training.models_ready) {
      detector.restore_state(std::move(*state));
      const core::Pipeline& pipeline = detector.pipeline();
      std::printf("restored checkpoint %s (+%zu delta frame(s)): %zu known "
                  "domain(s), %zu UA(s), %zu operation day(s) completed, "
                  "models trained\n",
                  state_path.c_str(), chain.frames_applied,
                  pipeline.domain_history().size(),
                  pipeline.ua_history().distinct_uas(),
                  detector.days_operated());
      if (chain.degraded) {
        std::fprintf(stderr,
                     "warning: delta chain degraded (%zu frame(s) dropped): "
                     "%s — resuming from the last good state\n",
                     chain.frames_dropped, chain.detail.c_str());
      }
      restored = true;
      // The checkpoint restores the config it was saved with; the operator
      // asked for these thresholds on THIS invocation, so re-apply them
      // (the printed Tc/Ts labels must stay truthful).
      core::PipelineConfig config = pipeline.config();
      config.cc_threshold = tc;
      config.sim_threshold = ts;
      detector.pipeline().set_config(config);
    } else if (state) {
      std::fprintf(stderr,
                   "warning: %s holds an untrained checkpoint — ignoring it "
                   "and training from scratch\n",
                   state_path.c_str());
    } else if (status.error != storage::LoadError::FileNotFound) {
      std::fprintf(stderr, "error: cannot restore %s: %s — %s\n",
                   state_path.c_str(), storage::load_error_name(status.error),
                   status.detail.c_str());
      return 1;
    }
  }

  if (restored) {
    std::printf("checkpointed models are trained; skipping January training\n");
  } else {
    std::printf("training on January (profiling + regression)...\n");
    const core::TrainingReport training = runner.train();
    std::printf("C&C model: %zu rows, %zu reported, R^2=%.2f\n",
                training.cc_rows, training.cc_positive,
                training.cc_model.r_squared);
  }

  core::SocSeeds seeds;
  seeds.domains = scenario.ioc_seeds();
  detector.set_intel_domains(seeds.domains);
  std::printf("SOC IOC list: %zu domains\n", seeds.domains.size());

  if (!follow_path.empty()) {
    FollowSetup setup;
    setup.follow_path = follow_path;
    setup.state_path = state_path;
    setup.day = follow_day > 0 ? static_cast<util::Day>(follow_day)
                               : scenario.operation_begin();
    setup.tick_seconds = tick_seconds;
    setup.window_seconds = window_seconds;
    setup.idle_exit = idle_exit;
    setup.poll_ms = poll_ms;
    setup.delta_every = static_cast<std::size_t>(delta_every);
    return run_follow(detector, seeds, setup, flush_observability);
  }

  // Resume where the checkpoint stopped: days the restored detector already
  // completed are not re-ingested (re-running them would double-count the
  // history updates).
  const util::Day first =
      scenario.operation_begin() +
      (restored ? static_cast<util::Day>(detector.days_operated()) : 0);
  const util::Day last =
      std::min<util::Day>(scenario.operation_end(), first + days - 1);
  if (first > scenario.operation_end()) {
    std::printf("checkpoint already covers the whole operation month — "
                "nothing to monitor\n");
    return 0;
  }
  if (restored && first > scenario.training_begin()) {
    // The simulator's day generation depends on cross-day state (WHOIS
    // registry, DHCP leases), so a resumed process fast-forwards it over
    // everything the checkpointed run already consumed — training month
    // included — without ingesting; only then does today's traffic match
    // what the uninterrupted run would have produced.
    std::printf("fast-forwarding simulator to %s...\n",
                util::format_day(first).c_str());
    for (util::Day day = scenario.training_begin(); day < first; ++day) {
      scenario.simulator().reduced_day(day);
    }
  }
  for (util::Day day = first; day <= last; ++day) {
    api::SimSource source(scenario.simulator(), day, day);
    const core::DayReport report = detector.run_day(source, day, seeds);

    std::printf("\n================ %s ================\n",
                util::format_day(day).c_str());
    std::printf("hosts=%zu domains=%zu rare=%zu automated_pairs=%zu\n",
                report.hosts, report.domains, report.rare_domains,
                report.automated_pairs);

    std::printf("\n[1] potential C&C (Tc=%.2f): %zu domain(s)\n", tc,
                report.cc_domains.size());
    for (const auto& det : report.cc_domains) {
      std::printf("    %-30s score=%.2f period=%.0fs hosts=%zu\n",
                  det.name.c_str(), det.score, det.period, det.auto_hosts);
    }

    std::printf("[2] no-hint expansion (Ts=%.2f): %zu more domain(s), "
                "%zu host(s) implicated\n",
                ts, report.nohint.domains.size(), report.nohint.hosts.size());
    for (const auto& det : report.nohint.domains) {
      std::printf("    %-30s iter=%zu via %s score=%.2f\n", det.name.c_str(),
                  det.iteration, core::label_reason_name(det.reason), det.score);
    }

    std::printf("[3] IOC-seeded expansion: %zu domain(s)\n",
                report.sochints.domains.size());
    for (const auto& det : report.sochints.domains) {
      std::printf("    %-30s iter=%zu via %s score=%.2f\n", det.name.c_str(),
                  det.iteration, core::label_reason_name(det.reason), det.score);
    }

    if (!state_path.empty()) {
      storage::LoadStatus status;
      const api::CheckpointPolicy policy{
          static_cast<std::size_t>(delta_every)};
      if (detector.save_state_delta(state_path, policy, &status)) {
        std::printf("[checkpoint] state saved to %s (delta chain, full "
                    "rewrite every %d)\n",
                    state_path.c_str(), delta_every);
      } else {
        std::fprintf(stderr, "warning: checkpoint failed: %s — %s\n",
                     storage::load_error_name(status.error),
                     status.detail.c_str());
      }
      rt::touch_heartbeat(rt::heartbeat_path(state_path));
    }
    flush_observability();
  }
  std::printf("\nmonitoring complete. (Ground truth lives in the scenario — "
              "in production these reports go to the SOC for manual "
              "investigation, §VI-B.)\n");
  const api::HealthSnapshot health = detector.health_snapshot();
  std::printf("health: %zu day(s) operated, %llu event(s) ingested\n",
              health.days_operated,
              static_cast<unsigned long long>(health.events_ingested));
  flush_observability();
  return 0;
}
