// Ablation (ours) of two Algorithm 1 design choices on the LANL world:
//
//  1. Incremental labeling — the paper labels only the single best-scoring
//     domain per iteration, recomputing scores as the labeled set grows —
//     versus the greedy variant labeling everything above Ts at once.
//  2. The Ts threshold and iteration budget, as a precision/recall sweep.
//
// Every run builds its own scenario: generating a day twice gives a
// different day (sim/enterprise.h), so runs sharing one scenario would each
// score a different world.
#include <cstdio>

#include "api/sources.h"
#include "bench_common.h"
#include "core/scorers.h"
#include "eval/lanl_runner.h"

namespace {

using namespace eid;

/// The paper's algorithm: the challenge through LanlRunner at (Ts, budget).
eval::DetectionCounts run_incremental(double ts, std::size_t max_iterations) {
  core::PipelineConfig config = eval::lanl_pipeline_config();
  config.sim_threshold = ts;
  config.bp_max_iterations = max_iterations;
  sim::LanlScenario scenario(bench::lanl_config());
  return eval::LanlRunner(scenario, config).run_challenge().total;
}

/// The greedy variant has no pipeline verb: seed like LanlRunner::run_case
/// (hint hosts, else the C&C sweep), then run Algorithm 1 with
/// label_all_above_threshold on the LANL scorer.
eval::DetectionCounts run_greedy() {
  const core::PipelineConfig config = eval::lanl_pipeline_config();
  sim::LanlScenario scenario(bench::lanl_config());
  eval::LanlRunner runner(scenario, config);
  runner.bootstrap();
  const core::Pipeline& pipeline = runner.detector().pipeline();
  eval::DetectionCounts total;
  api::SimSource source(scenario.simulator(), scenario.challenge_begin(),
                        scenario.challenge_end());
  runner.detector().analyze_days(
      source, [&](util::Day day, const core::DayAnalysis& analysis) {
        for (const sim::LanlCase& challenge : scenario.cases()) {
          if (challenge.day != day) continue;
          std::vector<graph::HostId> seed_hosts;
          for (const std::string& host : challenge.hint_hosts) {
            const graph::HostId id = analysis.graph.find_host(host);
            if (id != graph::kNoId) seed_hosts.push_back(id);
          }
          std::vector<graph::DomainId> seed_domains;
          if (seed_hosts.empty()) {
            for (const core::ScoredDomain& cc : pipeline.detect_cc(analysis)) {
              seed_domains.push_back(analysis.graph.find_domain(cc.name));
            }
          }
          const core::DayState state{analysis.graph,
                                     analysis.rare,
                                     analysis.automation,
                                     pipeline.ua_history(),
                                     scenario.simulator().whois(),
                                     day,
                                     analysis.whois_defaults};
          const core::LanlScorer scorer(state);
          core::BpConfig bp;
          bp.sim_threshold = config.sim_threshold;
          bp.max_iterations = config.bp_max_iterations;
          bp.label_all_above_threshold = true;
          const core::BpResult result = core::belief_propagation(
              analysis.graph, analysis.rare, seed_hosts, seed_domains, scorer,
              bp);
          std::vector<std::string> detected;
          for (const graph::DomainId dom : result.domains) {
            detected.push_back(analysis.graph.domain_name(dom));
          }
          total += eval::score_detections(detected, challenge.answer_domains);
        }
      });
  return total;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "Algorithm 1 design choices (LANL world)");

  std::printf("-- labeling strategy (Ts=0.25, 5 iterations) --\n");
  std::printf("%-34s %6s %6s %6s %8s %8s\n", "variant", "TP", "FP", "FN", "TDR%",
              "FNR%");
  for (const bool label_all : {false, true}) {
    const eval::DetectionCounts counts =
        label_all ? run_greedy() : run_incremental(0.25, 5);
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
    const eval::DetectionCounts counts = run_incremental(ts, 5);
    std::printf("%-10.3f %6zu %6zu %6zu %8.2f %8.2f\n", ts, counts.tp, counts.fp,
                counts.fn, 100.0 * counts.tdr(), 100.0 * counts.fnr());
  }

  std::printf("\n-- iteration budget (incremental, Ts=0.25) --\n");
  std::printf("%-10s %6s %6s %6s %8s %8s\n", "max_iter", "TP", "FP", "FN", "TDR%",
              "FNR%");
  for (const std::size_t iters : {1u, 2u, 3u, 5u, 10u}) {
    const eval::DetectionCounts counts = run_incremental(0.25, iters);
    std::printf("%-10zu %6zu %6zu %6zu %8.2f %8.2f\n", iters, counts.tp,
                counts.fp, counts.fn, 100.0 * counts.tdr(),
                100.0 * counts.fnr());
  }

  bench::print_note(
      "expected: the one FP in every row is a case-4 seed, a benign domain "
      "two hosts beacon to at matching periods, found by the C&C sweep "
      "before BP runs; so on this world the BP choices move only recall. "
      "The two labeling strategies read the same here; incremental "
      "labeling matters when score distributions are noisier, because each "
      "label refines the evidence (timing/IP proximity) for the next. A "
      "high Ts or a short budget starves recall; the paper's Ts=0.25 / "
      "5-iteration operating point finds every campaign domain.");
  return 0;
}
