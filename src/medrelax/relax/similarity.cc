#include "medrelax/relax/similarity.h"

#include <cmath>
#include <utility>

namespace medrelax {

SimilarityModel::SimilarityModel(const ConceptDag* dag,
                                 const FrequencyModel* freq,
                                 const SimilarityOptions& options)
    : dag_(dag), freq_(freq), options_(options) {}

ContextId SimilarityModel::EffectiveContext(ContextId ctx) const {
  return options_.use_context ? ctx : kNoContext;
}

double SimilarityModel::Ic(ConceptId id, ContextId ctx) const {
  return freq_->Ic(id, EffectiveContext(ctx));
}

PairGeometry SimilarityModel::Geometry(ConceptId from, ConceptId to) const {
  PairGeometry g;
  TaxonomicPath path = ShortestTaxonomicPath(*dag_, from, to);
  if (!path.found) return g;
  g.connected = true;
  const double d = static_cast<double>(path.hops.size());
  for (size_t i = 0; i < path.hops.size(); ++i) {
    double exponent = d - static_cast<double>(i + 1);  // Equation 4: D - i
    if (path.hops[i] == HopDirection::kGeneralization) {
      g.gen_exponent += exponent;
    } else {
      g.spec_exponent += exponent;
    }
  }
  LcsResult lcs = LeastCommonSubsumers(*dag_, from, to);
  g.lcs = std::move(lcs.concepts);
  return g;
}

double SimilarityModel::SimIc(ConceptId a, ConceptId b, ContextId ctx) const {
  if (a == b) return 1.0;
  ContextId effective = EffectiveContext(ctx);
  const PairGeometry g = Geometry(a, b);
  if (g.lcs.empty()) return 0.0;  // disconnected (non-rooted input)

  // Footnote 1: equal-distance ties are averaged.
  double lcs_ic = 0.0;
  for (ConceptId c : g.lcs) lcs_ic += freq_->Ic(c, effective);
  lcs_ic /= static_cast<double>(g.lcs.size());

  double denom = freq_->Ic(a, effective) + freq_->Ic(b, effective);
  if (denom <= 1e-12) {
    // Both concepts carry no information (e.g. both are the root); they are
    // only "similar" if identical, which was handled above.
    return 0.0;
  }
  return 2.0 * lcs_ic / denom;
}

double SimilarityModel::PathPenaltyForHops(
    const std::vector<HopDirection>& hops) const {
  const double d = static_cast<double>(hops.size());
  double penalty = 1.0;
  for (size_t i = 0; i < hops.size(); ++i) {
    double w = (hops[i] == HopDirection::kGeneralization)
                   ? options_.generalization_weight
                   : options_.specialization_weight;
    double exponent = d - static_cast<double>(i + 1);  // Equation 4: D - i
    penalty *= std::pow(w, exponent);
  }
  return penalty;
}

double SimilarityModel::PathPenalty(ConceptId from, ConceptId to) const {
  if (!options_.use_path_penalty) return 1.0;
  if (from == to) return 1.0;
  const PairGeometry g = Geometry(from, to);
  if (!g.connected) return 0.0;
  return std::pow(options_.generalization_weight, g.gen_exponent) *
         std::pow(options_.specialization_weight, g.spec_exponent);
}

double SimilarityModel::ScoreGeometry(const PairGeometry& g, ConceptId from,
                                      ConceptId to, ContextId ctx) const {
  if (from == to) return 1.0;
  ContextId effective = EffectiveContext(ctx);
  if (!g.connected || g.lcs.empty()) return 0.0;

  double penalty = 1.0;
  if (options_.use_path_penalty) {
    penalty = std::pow(options_.generalization_weight, g.gen_exponent) *
              std::pow(options_.specialization_weight, g.spec_exponent);
  }
  double lcs_ic = 0.0;
  for (ConceptId c : g.lcs) lcs_ic += freq_->Ic(c, effective);
  lcs_ic /= static_cast<double>(g.lcs.size());
  double denom = freq_->Ic(from, effective) + freq_->Ic(to, effective);
  if (denom <= 1e-12) return 0.0;
  return penalty * 2.0 * lcs_ic / denom;
}

double SimilarityModel::Similarity(ConceptId from, ConceptId to,
                                   ContextId ctx) const {
  if (from == to) return 1.0;
  return ScoreGeometry(Geometry(from, to), from, to, ctx);
}

}  // namespace medrelax
