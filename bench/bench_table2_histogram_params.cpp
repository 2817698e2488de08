// Reproduces Table II: the number of malicious automated (host, domain)
// pairs captured in the training and testing attack sets, plus the number
// of ALL automated pairs on testing days, as the dynamic-histogram
// parameters sweep over bin width W and Jeffrey threshold JT.
//
// The paper's selection logic: pick the (W, JT) that captures every
// malicious pair while labeling the fewest legitimate pairs automated —
// W = 10 s, JT = 0.06.
#include <cstdio>
#include <unordered_set>

#include "bench_common.h"
#include "eval/lanl_runner.h"
#include "timing/clustering.h"

int main() {
  using namespace eid;
  bench::print_header("Table II",
                      "Automated malicious pairs vs (W, JT) on the LANL world");

  sim::LanlScenario scenario(bench::lanl_config());
  eval::LanlRunner runner(scenario);
  runner.bootstrap();

  // Collect, per challenge day, the interval series of every (host, rare
  // domain) edge plus whether the pair is malicious (domain in answers and
  // host a victim).
  struct Pair {
    std::vector<double> intervals;
    bool malicious = false;
    bool training = false;
  };
  std::vector<Pair> pairs;

  for (util::Day day = scenario.challenge_begin(); day <= scenario.challenge_end();
       ++day) {
    const auto events = scenario.simulator().reduced_day(day);
    const sim::LanlCase* today_case = nullptr;
    for (const auto& challenge : scenario.cases()) {
      if (challenge.day == day) today_case = &challenge;
    }
    const core::DayAnalysis analysis = runner.analyze_events(events, day);
    std::unordered_set<std::string> answers;
    if (today_case != nullptr) {
      answers.insert(today_case->answer_domains.begin(),
                     today_case->answer_domains.end());
    }
    for (const graph::DomainId domain : analysis.rare) {
      for (const graph::HostId host : analysis.graph.domain_hosts(domain)) {
        const graph::EdgeData* edge = analysis.graph.edge(host, domain);
        if (edge == nullptr || edge->times.size() < 2) continue;
        Pair pair;
        pair.intervals = timing::inter_connection_intervals(edge->times);
        pair.malicious = answers.contains(analysis.graph.domain_name(domain));
        pair.training = sim::LanlScenario::is_training_day(day);
        pairs.push_back(std::move(pair));
      }
    }
    runner.detector().update_histories(analysis);
  }

  std::size_t total_malicious_training = 0;
  std::size_t total_malicious_testing = 0;
  for (const Pair& pair : pairs) {
    if (pair.malicious && pair.training) ++total_malicious_training;
    if (pair.malicious && !pair.training) ++total_malicious_testing;
  }
  std::printf("malicious (host,domain) pairs in world: training=%zu testing=%zu\n\n",
              total_malicious_training, total_malicious_testing);

  std::printf("%-10s %-10s | %-18s %-18s %-18s\n", "Bin width", "Jeffrey",
              "Malicious pairs", "Malicious pairs", "All automated");
  std::printf("%-10s %-10s | %-18s %-18s %-18s\n", "W", "threshold JT",
              "in training", "in testing", "pairs, testing days");
  std::printf("---------------------+--------------------------------------------\n");
  const double widths[] = {5.0, 10.0, 20.0};
  const double thresholds[] = {0.0, 0.034, 0.06, 0.35};
  for (const double w : widths) {
    for (const double jt : thresholds) {
      if (w != 5.0 && jt == 0.35) continue;  // match the paper's grid
      timing::PeriodicityDetector::Params params;
      params.bin_width_seconds = w;
      params.jeffrey_threshold = jt;
      const timing::PeriodicityDetector detector(params);
      std::size_t mal_train = 0;
      std::size_t mal_test = 0;
      std::size_t all_test = 0;
      for (const Pair& pair : pairs) {
        if (!detector.test_intervals(pair.intervals).automated) continue;
        if (pair.malicious && pair.training) ++mal_train;
        if (pair.malicious && !pair.training) ++mal_test;
        if (!pair.training) ++all_test;
      }
      std::printf("%-10.0f %-10.3f | %-18zu %-18zu %-18zu\n", w, jt, mal_train,
                  mal_test, all_test);
    }
  }
  bench::print_note(
      "paper (Table II): at W=10s JT=0.06 all 33 malicious pairs are captured "
      "with 16803 total automated testing pairs; larger W or JT only adds "
      "legitimate pairs. Expect the same shape: counts non-decreasing in W "
      "and JT, full malicious coverage around W=10s/JT=0.06 at far lower "
      "legitimate cost than W=5s/JT=0.35.");
  return 0;
}
