// End-to-end runner for the LANL challenge (§V): bootstraps the domain
// history over February, walks March chronologically, and on each campaign
// day runs belief propagation with the LANL scorer — seeded by the case's
// hint hosts, or by the challenge-specific C&C sweep when no hints exist
// (case 4). Produces the per-case counts of Table III.
#pragma once

#include <unordered_set>

#include "api/detector.h"
#include "core/belief_propagation.h"
#include "core/scorers.h"
#include "eval/metrics.h"
#include "profile/domain_history.h"
#include "sim/lanl.h"

namespace eid::eval {

struct LanlRunnerConfig {
  timing::PeriodicityDetector::Params periodicity{};  ///< W = 10 s, JT = 0.06
  core::LanlScorerParams scorer{};
  double sim_threshold = 0.25;  ///< Ts chosen on the training set (§V-B)
  std::size_t max_iterations = 5;
  std::size_t popularity_threshold = 10;
};

/// Result of one challenge day.
struct LanlDayResult {
  sim::LanlCase challenge;
  std::vector<std::string> detected_domains;
  std::vector<std::string> detected_hosts;
  DetectionCounts counts;
  std::vector<core::BpEvent> trace;  ///< Fig. 4-style walkthrough data
  std::size_t rare_domains = 0;
  std::size_t automated_pairs = 0;
};

struct LanlChallengeResult {
  std::vector<LanlDayResult> days;
  DetectionCounts per_case_training[5];  ///< index 1..4
  DetectionCounts per_case_testing[5];
  DetectionCounts training_total;
  DetectionCounts testing_total;
  DetectionCounts total;
};

class LanlRunner {
 public:
  LanlRunner(sim::LanlScenario& scenario, LanlRunnerConfig config = {});

  /// Ingest the February bootstrap month into the domain history.
  void bootstrap();

  /// Analyze one day (graph + rare + automation). Does not update history.
  core::DayAnalysis analyze_day(util::Day day);

  /// Analyze an already-reduced event stream (avoids re-simulating when the
  /// caller also needs the events).
  core::DayAnalysis analyze_events(const std::vector<logs::ConnEvent>& events,
                                   util::Day day) const;

  /// Run one challenge case against an analysis of its day.
  LanlDayResult run_case(const sim::LanlCase& challenge,
                         const core::DayAnalysis& analysis) const;

  /// Update the history with a day's traffic (call after analysis).
  void finish_day(util::Day day);

  /// Bootstrap + walk all of March + score every case.
  LanlChallengeResult run_challenge();

  const profile::DomainHistory& history() const {
    return detector_.pipeline().domain_history();
  }

  /// The streaming facade, for callers that commit a day they analyzed
  /// with analyze_events (detector().update_histories(analysis)).
  api::Detector& detector() { return detector_; }

 private:
  sim::LanlScenario& scenario_;
  LanlRunnerConfig config_;
  /// Streaming facade; only the history/analysis layers are exercised (the
  /// LANL challenge scores with LanlScorer, not the trained regressions).
  api::Detector detector_;
};

}  // namespace eid::eval
