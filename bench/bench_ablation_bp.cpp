// Ablation (ours) of two Algorithm 1 design choices on the LANL world:
//
//  1. Incremental labeling — the paper labels only the single best-scoring
//     domain per iteration, recomputing scores as the labeled set grows —
//     versus the greedy variant labeling everything above Ts at once.
//  2. The Ts threshold and iteration budget, as a precision/recall sweep.
#include <cstdio>

#include "bench_common.h"
#include "eval/lanl_runner.h"

namespace {

using namespace eid;

eval::DetectionCounts run_all_cases(sim::LanlScenario& scenario,
                                    const eval::LanlRunnerConfig& config,
                                    bool label_all, std::size_t max_iterations) {
  eval::LanlRunner runner(scenario, config);
  runner.bootstrap();
  eval::DetectionCounts total;
  for (util::Day day = scenario.challenge_begin(); day <= scenario.challenge_end();
       ++day) {
    const auto events = scenario.simulator().reduced_day(day);
    const core::DayAnalysis analysis = runner.analyze_events(events, day);
    for (const auto& challenge : scenario.cases()) {
      if (challenge.day != day) continue;
      // Re-run BP manually to control the variant flags.
      static const profile::UaHistory kNoUaHistory{};
      const core::DayState state{analysis.graph,
                                 analysis.rare,
                                 analysis.automation,
                                 kNoUaHistory,
                                 scenario.simulator().whois(),
                                 day,
                                 features::WhoisDefaults{}};
      const core::LanlScorer scorer(state, config.scorer);
      std::vector<graph::HostId> seed_hosts;
      for (const auto& host : challenge.hint_hosts) {
        const graph::HostId id = analysis.graph.find_host(host);
        if (id != graph::kNoId) seed_hosts.push_back(id);
      }
      std::vector<graph::DomainId> seed_domains;
      if (seed_hosts.empty()) {
        for (const graph::DomainId dom : analysis.automation.automated_domains()) {
          if (analysis.rare.contains(dom) && scorer.detect_cc(dom)) {
            seed_domains.push_back(dom);
          }
        }
      }
      core::BpConfig bp;
      bp.sim_threshold = config.sim_threshold;
      bp.max_iterations = max_iterations;
      bp.label_all_above_threshold = label_all;
      const core::BpResult result = core::belief_propagation(
          analysis.graph, analysis.rare, seed_hosts, seed_domains, scorer, bp);
      std::vector<std::string> detected;
      for (const graph::DomainId dom : result.domains) {
        detected.push_back(analysis.graph.domain_name(dom));
      }
      total += eval::score_detections(detected, challenge.answer_domains);
    }
    runner.detector().update_histories(analysis);
  }
  return total;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "Algorithm 1 design choices (LANL world)");
  sim::LanlScenario scenario(bench::lanl_config());
  eval::LanlRunnerConfig config;

  std::printf("-- labeling strategy (Ts=0.25, 5 iterations) --\n");
  std::printf("%-34s %6s %6s %6s %8s %8s\n", "variant", "TP", "FP", "FN", "TDR%",
              "FNR%");
  for (const bool label_all : {false, true}) {
    const eval::DetectionCounts counts =
        run_all_cases(scenario, config, label_all, 5);
    std::printf("%-34s %6zu %6zu %6zu %8.2f %8.2f\n",
                label_all ? "greedy (all >= Ts per iteration)"
                          : "incremental (paper: best only)",
                counts.tp, counts.fp, counts.fn, 100.0 * counts.tdr(),
                100.0 * counts.fnr());
  }

  std::printf("\n-- similarity threshold Ts (incremental, 5 iterations) --\n");
  std::printf("%-10s %6s %6s %6s %8s %8s\n", "Ts", "TP", "FP", "FN", "TDR%",
              "FNR%");
  for (const double ts : {0.10, 0.175, 0.25, 0.50, 0.80}) {
    eval::LanlRunnerConfig swept = config;
    swept.sim_threshold = ts;
    const eval::DetectionCounts counts = run_all_cases(scenario, swept, false, 5);
    std::printf("%-10.3f %6zu %6zu %6zu %8.2f %8.2f\n", ts, counts.tp, counts.fp,
                counts.fn, 100.0 * counts.tdr(), 100.0 * counts.fnr());
  }

  std::printf("\n-- iteration budget (incremental, Ts=0.25) --\n");
  std::printf("%-10s %6s %6s %6s %8s %8s\n", "max_iter", "TP", "FP", "FN", "TDR%",
              "FNR%");
  for (const std::size_t iters : {1u, 2u, 3u, 5u, 10u}) {
    const eval::DetectionCounts counts = run_all_cases(scenario, config, false, iters);
    std::printf("%-10zu %6zu %6zu %6zu %8.2f %8.2f\n", iters, counts.tp,
                counts.fp, counts.fn, 100.0 * counts.tdr(),
                100.0 * counts.fnr());
  }

  bench::print_note(
      "expected: on this well-separated world the two labeling strategies "
      "perform near-identically — incremental labeling matters when score "
      "distributions are noisier, because each label refines the evidence "
      "(timing/IP proximity) for the next. Lowering Ts or raising the "
      "budget trades FPs for FNs around the paper's Ts=0.25 / 5-iteration "
      "operating point; too few iterations starves recall, too many admits "
      "borderline domains.");
  return 0;
}
