// The two DomainScorer implementations used in the paper:
//
// * EnterpriseScorer (§IV-C, §IV-D): two trained linear-regression models —
//   one over the six C&C features for Detect_C&C, one over the eight
//   similarity features for Compute_SimScore. Feature values are min-max
//   scaled with scalers fitted during training so scores are comparable to
//   the paper's 0..1 thresholds.
//
// * LanlScorer (§V-B): the reduced-information variant for anonymized DNS
//   data, which needs no training. Detect_C&C = automated + at least two
//   distinct hosts beaconing with similar periods (within 10 s); its C&C
//   score is that verdict, 1.0 or 0.0. Compute_SimScore = normalized
//   additive score over connectivity, timing correlation and IP proximity
//   (no registration or HTTP features exist in that dataset).
//
// core::Pipeline builds the one scorer its verbs use: EnterpriseScorer
// once the models are trained (or installed, or restored), LanlScorer
// before that.
#pragma once

#include <span>
#include <unordered_set>

#include "core/belief_propagation.h"
#include "features/automation.h"
#include "features/cc_features.h"
#include "features/similarity_features.h"
#include "ml/linreg.h"

namespace eid::core {

/// Everything about "today" the scorers need. Scorers copy this small
/// struct; the *referenced* objects (graph, histories, ...) must outlive
/// the scorer.
struct DayState {
  const graph::DayGraph& graph;
  const std::unordered_set<graph::DomainId>& rare;
  const features::AutomationAnalysis& automation;
  const profile::UaHistory& ua_history;
  const features::WhoisSource& whois;
  util::Day today = 0;
  features::WhoisDefaults whois_defaults;
};

/// A trained model + scaler. Raw regression outputs are affinely
/// normalized so the *training* scores span [0, 1]; the paper's thresholds
/// (0.4..0.48 for C&C, 0.33..0.85 for similarity) are meaningful on that
/// scale regardless of the training base rate.
struct ScoredModel {
  ml::LinearModel model;
  ml::MinMaxScaler scaler;
  double score_offset = 0.0;  ///< min raw training score
  double score_scale = 1.0;   ///< max - min raw training score

  /// Scale features, predict, normalize. Mutates `row` (scaling in place).
  double score(std::span<double> row) const {
    scaler.transform_row(row);
    return (model.predict(row) - score_offset) / score_scale;
  }
};

/// Enterprise scorer: regression-weighted features. detect_cc() keeps a
/// rare automated domain whose C&C score reaches `cc_threshold` (Tc).
class EnterpriseScorer final : public DomainScorer {
 public:
  EnterpriseScorer(const DayState& state, ScoredModel cc_model,
                   ScoredModel sim_model, double cc_threshold)
      : state_(state),
        cc_(std::move(cc_model)),
        sim_(std::move(sim_model)),
        cc_threshold_(cc_threshold) {}

  /// Regression score over the C&C features (post-scaling).
  double cc_score(graph::DomainId domain) const override;

  /// Regression score over the similarity features (post-scaling).
  double sim_score(graph::DomainId domain,
                   std::span<const graph::DomainId> labeled) const;

  bool detect_cc(graph::DomainId domain) const override;
  double similarity_score(graph::DomainId domain,
                          std::span<const graph::DomainId> labeled) const override;

 private:
  DayState state_;
  ScoredModel cc_;
  ScoredModel sim_;
  double cc_threshold_;
};

class LanlScorer final : public DomainScorer {
 public:
  explicit LanlScorer(const DayState& state) : state_(state) {}

  bool detect_cc(graph::DomainId domain) const override;
  double similarity_score(graph::DomainId domain,
                          std::span<const graph::DomainId> labeled) const override;

  /// The three additive components before normalization, for tests.
  struct Components {
    double connectivity = 0.0;  ///< in [0, 1]
    double timing = 0.0;        ///< 0 or 1
    double ip = 0.0;            ///< 0, 1 (/16) or 2 (/24)
  };
  Components components(graph::DomainId domain,
                        std::span<const graph::DomainId> labeled) const;

 private:
  DayState state_;
};

}  // namespace eid::core
