#include "eval/ac_runner.h"

#include <algorithm>
#include <unordered_set>

#include "api/sources.h"

namespace eid::eval {

AcRunner::AcRunner(sim::AcScenario& scenario, AcRunnerConfig config)
    : scenario_(scenario),
      config_(config),
      detector_(config.pipeline, scenario.simulator().whois()) {}

core::TrainingReport AcRunner::train() {
  const util::Day first = scenario_.training_begin();
  const util::Day last = scenario_.training_end();
  const util::Day train_from = last - config_.training_days + 1;
  const sim::IntelOracle& oracle = scenario_.oracle();
  const core::LabelFn intel = [&oracle](const std::string& domain) {
    return oracle.vt_reported(domain);
  };
  if (train_from > first) {
    api::SimSource bootstrap(scenario_.simulator(), first, train_from - 1);
    detector_.ingest(bootstrap);
  }
  api::SimSource labeled(scenario_.simulator(), std::max(first, train_from), last);
  detector_.ingest(labeled, intel);
  trained_ = true;
  return detector_.finalize_training();
}

void AcRunner::run_operation(const DayCallback& callback) {
  // One pass over the whole operation window; the callback runs the
  // threshold sweeps on each day's analysis.
  api::SimSource source(scenario_.simulator(), scenario_.operation_begin(),
                        scenario_.operation_end());
  detector_.analyze_days(source, callback);
}

AcRunner::MonthReport AcRunner::run_month(double tc, double ts_nohint,
                                          double ts_sochints) {
  MonthReport report;
  core::SocSeeds seeds;
  seeds.domains = scenario_.ioc_seeds();
  const std::unordered_set<std::string> seed_set(seeds.domains.begin(),
                                                 seeds.domains.end());
  std::unordered_set<std::string> cc_seen;
  std::unordered_set<std::string> nohint_seen;
  std::unordered_set<std::string> sochints_seen;
  std::unordered_set<std::string> nohint_hosts;
  std::unordered_set<std::string> automated_seen;

  core::Pipeline& pipeline = detector_.pipeline();
  run_operation([&](util::Day /*day*/, const core::DayAnalysis& analysis) {
    for (const core::ScoredDomain& dom : pipeline.score_automated(analysis)) {
      automated_seen.insert(dom.name);
    }
    const auto cc = pipeline.detect_cc(analysis, tc);
    for (const core::ScoredDomain& dom : cc) cc_seen.insert(dom.name);

    const core::BpRunReport nohint =
        pipeline.run_bp_nohint(analysis, cc, ts_nohint);
    for (const core::ScoredDomain& dom : cc) nohint_seen.insert(dom.name);
    for (const core::DetectedDomain& dom : nohint.domains) {
      nohint_seen.insert(dom.name);
    }
    for (const std::string& host : nohint.hosts) nohint_hosts.insert(host);

    const core::BpRunReport sochints =
        pipeline.run_bp_sochints(analysis, seeds, ts_sochints);
    for (const core::DetectedDomain& dom : sochints.domains) {
      // Seed IOC domains are inputs, not detections (§VI-D).
      if (!seed_set.contains(dom.name)) sochints_seen.insert(dom.name);
    }
  });

  report.cc_domains.assign(cc_seen.begin(), cc_seen.end());
  report.nohint_domains.assign(nohint_seen.begin(), nohint_seen.end());
  report.sochints_domains.assign(sochints_seen.begin(), sochints_seen.end());
  report.cc = validate_detections(report.cc_domains, scenario_.oracle());
  report.nohint = validate_detections(report.nohint_domains, scenario_.oracle());
  report.sochints =
      validate_detections(report.sochints_domains, scenario_.oracle());
  report.nohint_hosts = nohint_hosts.size();
  report.automated_domains = automated_seen.size();
  return report;
}

}  // namespace eid::eval
