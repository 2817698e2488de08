// Reproduces Fig. 4: a walkthrough of belief propagation on a case-3 day
// (the paper uses 3/19): starting from one hint host, C&C communication is
// detected first, then similarity labeling expands the community until the
// score threshold stops the algorithm.
#include <cstdio>

#include "bench_common.h"
#include "eval/lanl_runner.h"

int main() {
  using namespace eid;
  bench::print_header("Fig. 4", "Belief propagation walkthrough (case 3, 3/19)");

  sim::LanlScenario scenario(bench::lanl_config());
  eval::LanlRunner runner(scenario);
  runner.bootstrap();

  const util::Day target_day = util::make_day(2013, 3, 19);
  const sim::LanlCase* target = nullptr;
  for (const auto& challenge : scenario.cases()) {
    if (challenge.day == target_day) target = &challenge;
  }
  if (target == nullptr) {
    std::printf("no case on 3/19 in this scenario\n");
    return 1;
  }

  for (util::Day day = scenario.challenge_begin(); day < target_day; ++day) {
    runner.finish_day(day);
  }
  const core::DayAnalysis analysis = runner.analyze_day(target_day);
  const eval::LanlDayResult result = runner.run_case(*target, analysis);

  std::printf("hint host: %s\n", target->hint_hosts.front().c_str());
  std::printf("campaign ground truth: %zu domains, %zu victims\n\n",
              target->answer_domains.size(), target->victim_hosts.size());

  for (const core::DetectedDomain& label : result.trace) {
    if (label.reason == core::LabelReason::CandC) {
      const features::DomainAutomation* agg =
          analysis.automation.domain(analysis.graph.find_domain(label.name));
      std::printf("iter %zu: %-24s labeled C&C (beacon every ~%.0f s, %zu hosts)\n",
                  label.iteration, label.name.c_str(),
                  agg != nullptr ? agg->dominant_period() : 0.0,
                  agg != nullptr ? agg->host_count() : 0);
    } else if (label.reason == core::LabelReason::Similarity) {
      std::printf("iter %zu: %-24s labeled by similarity (score %.2f)\n",
                  label.iteration, label.name.c_str(), label.score);
    }
    for (const std::string& host : label.new_hosts) {
      std::printf("          -> host %s added to compromised set\n",
                  host.c_str());
    }
  }
  std::printf("\nfinal: %zu domains labeled, %zu hosts compromised "
              "(tp=%zu fp=%zu fn=%zu)\n",
              result.detected_domains.size(), result.detected_hosts.size(),
              result.counts.tp, result.counts.fp, result.counts.fn);
  for (const auto& domain : result.detected_domains) {
    const bool truth = scenario.simulator().truth().is_malicious(domain);
    std::printf("  %-24s %s\n", domain.c_str(),
                truth ? "confirmed malicious" : "FALSE POSITIVE");
  }
  bench::print_note(
      "paper (Fig. 4): from hint 74.92.144.170, C&C rainbow-.c3 at 10-min "
      "intervals found in iter 1 (second host compromised), then three "
      "domains labeled by similarity (0.82, 0.42, 0.28) before the score "
      "threshold stopped the walk with all labels confirmed.");
  return 0;
}
