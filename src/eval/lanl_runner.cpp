#include "eval/lanl_runner.h"

#include <algorithm>

#include "api/sources.h"

namespace eid::eval {
namespace {

core::PipelineConfig pipeline_config(const LanlRunnerConfig& config) {
  core::PipelineConfig out;
  out.popularity_threshold = config.popularity_threshold;
  out.periodicity = config.periodicity;
  return out;
}

}  // namespace

LanlRunner::LanlRunner(sim::LanlScenario& scenario, LanlRunnerConfig config)
    : scenario_(scenario),
      config_(config),
      detector_(pipeline_config(config), scenario.simulator().whois()) {}

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

  const core::DayState state{analysis.graph,  analysis.rare,
                             analysis.automation,
                             detector_.pipeline().ua_history(),
                             scenario_.simulator().whois(), analysis.day,
                             features::WhoisDefaults{}};
  const core::LanlScorer scorer(state, config_.scorer);

  std::vector<graph::HostId> seed_hosts;
  for (const std::string& host : challenge.hint_hosts) {
    const graph::HostId id = analysis.graph.find_host(host);
    if (id != graph::kNoId) seed_hosts.push_back(id);
  }

  std::vector<graph::DomainId> seed_domains;
  if (seed_hosts.empty()) {
    // Case 4: no hints. Seed with the challenge C&C sweep — every rare
    // automated domain with two hosts beaconing at matching periods.
    for (const graph::DomainId domain : analysis.automation.automated_domains()) {
      if (!analysis.rare.contains(domain)) continue;
      if (scorer.detect_cc(domain)) seed_domains.push_back(domain);
    }
  }

  core::BpConfig bp;
  bp.sim_threshold = config_.sim_threshold;
  bp.max_iterations = config_.max_iterations;
  const core::BpResult bp_result = core::belief_propagation(
      analysis.graph, analysis.rare, seed_hosts, seed_domains, scorer, bp);

  result.trace = bp_result.trace;
  // Case-4 seeds are themselves detections (nothing was given); in the
  // hinted cases, hosts were given but domains were not, so every labeled
  // domain counts as a detection either way.
  for (const graph::DomainId domain : bp_result.domains) {
    result.detected_domains.push_back(analysis.graph.domain_name(domain));
  }
  for (const graph::HostId host : bp_result.hosts) {
    result.detected_hosts.push_back(analysis.graph.host_name(host));
  }
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
