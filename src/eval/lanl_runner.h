// End-to-end runner for the LANL challenge (§V): bootstraps the domain
// history over February, walks March chronologically, and on each campaign
// day runs the detector's belief propagation — seeded by the case's hint
// hosts (SOC-hints mode), or by the C&C sweep when no hint host is in the
// day's graph (case 4, no-hint mode). The detector is never trained, so
// its pipeline scores with the DNS-log rules of §V-B (core::LanlScorer).
// Produces the per-case counts of Table III.
#pragma once

#include "api/detector.h"
#include "eval/metrics.h"
#include "profile/domain_history.h"
#include "sim/lanl.h"

namespace eid::eval {

/// The LANL operating point: Ts = 0.25, chosen on the training set
/// (§V-B), and 5 BP iterations; everything else at the PipelineConfig
/// defaults (W = 10 s, JT = 0.06, popularity cap 10).
core::PipelineConfig lanl_pipeline_config();

/// Result of one challenge day.
struct LanlDayResult {
  sim::LanlCase challenge;
  std::vector<std::string> detected_domains;
  std::vector<std::string> detected_hosts;
  DetectionCounts counts;
  /// Fig. 4-style walkthrough: case-4 C&C seeds (reason Seed), then BP's
  /// labels in order. Its names are detected_domains.
  std::vector<core::DetectedDomain> trace;
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
  LanlRunner(sim::LanlScenario& scenario,
             core::PipelineConfig config = lanl_pipeline_config());

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
  api::Detector detector_;
};

}  // namespace eid::eval
