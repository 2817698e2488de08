#include "eval/lanl_runner.h"

#include <algorithm>
#include <iterator>

#include "api/sources.h"

namespace eid::eval {

core::PipelineConfig lanl_pipeline_config() {
  core::PipelineConfig config;
  config.sim_threshold = 0.25;
  config.bp_max_iterations = 5;
  return config;
}

LanlRunner::LanlRunner(sim::LanlScenario& scenario, core::PipelineConfig config)
    : scenario_(scenario), detector_(config, scenario.simulator().whois()) {}

void LanlRunner::bootstrap() {
  api::SimSource source(scenario_.simulator(), scenario_.bootstrap_begin(),
                        scenario_.bootstrap_end());
  detector_.ingest(source);
}

core::DayAnalysis LanlRunner::analyze_day(util::Day day) {
  api::SimSource source(scenario_.simulator(), day, day);
  return detector_.analyze_stream(source, day);
}

core::DayAnalysis LanlRunner::analyze_events(
    const std::vector<logs::ConnEvent>& events, util::Day day) const {
  api::VectorSource source(day, &events);
  return detector_.analyze_stream(source, day);
}

LanlDayResult LanlRunner::run_case(const sim::LanlCase& challenge,
                                   const core::DayAnalysis& analysis) const {
  LanlDayResult result;
  result.challenge = challenge;
  result.rare_domains = analysis.rare.size();
  result.automated_pairs = analysis.automation.pair_count();

  const core::Pipeline& pipeline = detector_.pipeline();
  const bool hinted = std::any_of(
      challenge.hint_hosts.begin(), challenge.hint_hosts.end(),
      [&](const std::string& host) {
        return analysis.graph.find_host(host) != graph::kNoId;
      });
  core::BpRunReport bp;
  if (hinted) {
    // Hosts were given but domains were not, so every label is a detection.
    bp = pipeline.run_bp_sochints(analysis,
                                  core::SocSeeds{challenge.hint_hosts, {}});
  } else {
    // Case 4: nothing was given, so the C&C sweep's seeds are detections too.
    const std::vector<core::ScoredDomain> cc = pipeline.detect_cc(analysis);
    for (const core::ScoredDomain& seed : cc) {
      result.trace.push_back(
          {seed.name, seed.score, core::LabelReason::Seed, 0, {}});
    }
    bp = pipeline.run_bp_nohint(analysis, cc);
  }
  result.trace.insert(result.trace.end(),
                      std::make_move_iterator(bp.domains.begin()),
                      std::make_move_iterator(bp.domains.end()));
  for (const core::DetectedDomain& label : result.trace) {
    result.detected_domains.push_back(label.name);
  }
  result.detected_hosts = std::move(bp.hosts);
  result.counts =
      score_detections(result.detected_domains, challenge.answer_domains);
  return result;
}

void LanlRunner::finish_day(util::Day day) {
  api::SimSource source(scenario_.simulator(), day, day);
  detector_.ingest(source);
}

LanlChallengeResult LanlRunner::run_challenge() {
  bootstrap();
  LanlChallengeResult result;
  // One pass over the challenge window through the detector's multi-day
  // verb: every day is analyzed (case days additionally scored against
  // their challenge) and committed to the histories from its day graph —
  // equivalent to the old per-day events-form update, since the graph
  // folds exactly the day's events.
  api::SimSource source(scenario_.simulator(), scenario_.challenge_begin(),
                        scenario_.challenge_end());
  detector_.analyze_days(
      source, [&](util::Day day, const core::DayAnalysis& analysis) {
        const auto it = std::find_if(
            scenario_.cases().begin(), scenario_.cases().end(),
            [day](const sim::LanlCase& c) { return c.day == day; });
        if (it == scenario_.cases().end()) return;
        LanlDayResult day_result = run_case(*it, analysis);
        const int case_id = it->case_id;
        if (it->training) {
          result.per_case_training[case_id] += day_result.counts;
          result.training_total += day_result.counts;
        } else {
          result.per_case_testing[case_id] += day_result.counts;
          result.testing_total += day_result.counts;
        }
        result.total += day_result.counts;
        result.days.push_back(std::move(day_result));
      });
  return result;
}

}  // namespace eid::eval
