// Reproduces Fig. 3: CDFs of the time difference between a compromised
// host's first connections to two malicious domains, versus a malicious
// and a rare legitimate domain. The paper reports 56% of malicious pairs
// within 160 s but only 3.8% of malicious-legitimate pairs.
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "bench_common.h"
#include "eval/lanl_runner.h"

int main() {
  using namespace eid;
  bench::print_header(
      "Fig. 3", "First-visit gap CDFs: malicious-malicious vs malicious-legit");

  sim::LanlScenario scenario(bench::lanl_config());
  eval::LanlRunner runner(scenario);
  runner.bootstrap();

  std::vector<double> mal_mal;
  std::vector<double> mal_legit;

  for (util::Day day = scenario.challenge_begin(); day <= scenario.challenge_end();
       ++day) {
    const auto events = scenario.simulator().reduced_day(day);
    const sim::LanlCase* today_case = nullptr;
    for (const auto& challenge : scenario.cases()) {
      if (challenge.day == day && challenge.training) today_case = &challenge;
    }
    const core::DayAnalysis analysis = runner.analyze_events(events, day);
    if (today_case != nullptr) {
      const std::unordered_set<std::string> answers(
          today_case->answer_domains.begin(), today_case->answer_domains.end());
      for (const std::string& victim : today_case->victim_hosts) {
        const graph::HostId host = analysis.graph.find_host(victim);
        if (host == graph::kNoId) continue;
        // First-visit timestamps of every rare domain this victim touched.
        std::vector<std::pair<util::TimePoint, bool>> visits;  // (ts, malicious)
        for (const graph::DomainId domain : analysis.graph.host_domains(host)) {
          if (!analysis.rare.contains(domain)) continue;
          const auto first = analysis.graph.first_contact(host, domain);
          if (!first) continue;
          visits.emplace_back(*first,
                              answers.contains(analysis.graph.domain_name(domain)));
        }
        for (std::size_t i = 0; i < visits.size(); ++i) {
          if (!visits[i].second) continue;  // anchor on malicious visits
          for (std::size_t j = 0; j < visits.size(); ++j) {
            if (i == j) continue;
            const double gap = std::abs(
                static_cast<double>(visits[i].first - visits[j].first));
            if (visits[j].second) {
              if (i < j) mal_mal.push_back(gap);  // count each pair once
            } else {
              mal_legit.push_back(gap);
            }
          }
        }
      }
    }
    runner.detector().update_histories(analysis);
  }

  const std::vector<double> grid = {10,    40,    160,   640,   2560,
                                    10240, 20480, 40960, 70000};
  bench::print_cdf("malicious-malicious first-visit gaps", mal_mal, grid);
  bench::print_cdf("malicious-legitimate first-visit gaps", mal_legit, grid);

  std::printf("\nfraction of gaps <= 160 s: malicious-malicious=%.1f%%  "
              "malicious-legit=%.1f%%\n",
              100.0 * bench::cdf_at(mal_mal, 160.0),
              100.0 * bench::cdf_at(mal_legit, 160.0));
  bench::print_note(
      "paper (Fig. 3): 56% of malicious pairs within 160 s vs 3.8% of "
      "malicious-legit pairs. Expect the malicious CDF far to the left of "
      "the legit CDF with a large gap at small intervals.");
  return 0;
}
