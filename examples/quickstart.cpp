// Quickstart: the smallest end-to-end use of the library.
//
// 1. Simulate a small enterprise (stand-in for your own proxy logs).
// 2. Train the detector through the streaming ingestion API: profile a
//    bootstrap period, then fit the C&C and similarity regressions against
//    an intelligence feed.
// 3. Run one day in operation mode and print what the detector found.
//
// Everything flows through eid::api::Detector + EventSource — the same
// chunked path that ingests replayed log files (see log_replay.cpp), so no
// day ever has to fit in memory as one vector.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "api/detector.h"
#include "api/sources.h"
#include "eval/metrics.h"
#include "sim/ac.h"

int main() {
  using namespace eid;

  // A small synthetic enterprise: 200 hosts, fresh campaigns twice a week.
  sim::AcConfig world;
  world.seed = 2024;
  world.n_hosts = 200;
  world.n_popular = 100;
  world.tail_per_day = 60;
  world.automated_tail_per_day = 4;
  world.grayware_per_day = 2;
  world.campaigns_per_week = 4.0;
  sim::AcScenario scenario(world);
  auto& simulator = scenario.simulator();

  // The detection facade. In production the WhoisSource would wrap real
  // WHOIS queries; here it is the scenario's synthetic registry.
  core::PipelineConfig config;  // W=10s, JT=0.06, Tc=0.4, Ts=0.33
  api::Detector detector(config, simulator.whois());

  // ---- Training month (Fig. 1, left) ----
  const util::Day jan1 = scenario.training_begin();
  const util::Day jan31 = scenario.training_end();
  const core::LabelFn intel = [&](const std::string& domain) {
    return scenario.oracle().vt_reported(domain);  // "VirusTotal" lookup
  };

  // Bootstrap: build domain/UA histories from the first weeks of traffic.
  api::SimSource bootstrap(simulator, jan1, jan31 - 14);
  const api::IngestReport profiled = detector.ingest(bootstrap);
  // Last two weeks: accumulate labeled regression rows day by day.
  api::SimSource labeled(simulator, jan31 - 13, jan31);
  detector.ingest(labeled, intel);

  const core::TrainingReport training = detector.finalize_training();
  std::printf("profiled %zu days (%zu events, %zu chunks)\n", profiled.days,
              profiled.events, profiled.chunks);
  std::printf("trained on %zu automated domains (%zu reported by intel)\n",
              training.cc_rows, training.cc_positive);

  // ---- One day of operation (Fig. 1, right) ----
  const util::Day today = scenario.operation_begin() + 1;
  core::SocSeeds seeds;
  seeds.domains = scenario.ioc_seeds();  // the SOC's IOC list
  api::SimSource day_source(simulator, today, today);
  const core::DayReport report = detector.run_day(day_source, today, seeds);

  std::printf("\n%s: %zu events, %zu hosts, %zu domains (%zu rare)\n",
              util::format_day(today).c_str(), report.events, report.hosts,
              report.domains, report.rare_domains);

  std::printf("\npotential C&C domains (score >= %.2f):\n", config.cc_threshold);
  for (const auto& det : report.cc_domains) {
    std::printf("  %-28s score %.2f, beacon ~%.0f s from %zu host(s)\n",
                det.name.c_str(), det.score, det.period, det.auto_hosts);
  }

  std::printf("\nbelief propagation, no-hint mode:\n");
  for (const auto& det : report.nohint.domains) {
    std::printf("  %-28s via %-10s (score %.2f)\n", det.name.c_str(),
                core::label_reason_name(det.reason), det.score);
  }
  std::printf("belief propagation, SOC-hints mode (%zu IOC seeds):\n",
              seeds.domains.size());
  for (const auto& det : report.sochints.domains) {
    std::printf("  %-28s via %-10s (score %.2f)\n", det.name.c_str(),
                core::label_reason_name(det.reason), det.score);
  }

  // Ground truth check (only possible because this is a simulation).
  std::vector<std::string> all;
  for (const auto& det : report.cc_domains) all.push_back(det.name);
  for (const auto& det : report.nohint.domains) all.push_back(det.name);
  const eval::ValidationCounts counts =
      eval::validate_detections(all, scenario.oracle());
  std::printf("\nvalidation: %zu detected; %zu known, %zu new-malicious, "
              "%zu suspicious, %zu legitimate (TDR %.0f%%)\n",
              counts.total(), counts.known_malicious, counts.new_malicious,
              counts.suspicious, counts.legitimate, 100.0 * counts.tdr());
  return 0;
}
