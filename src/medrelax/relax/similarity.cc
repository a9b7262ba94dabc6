#include "medrelax/relax/similarity.h"

#include <cmath>
#include <utility>

#include "medrelax/common/logging.h"

namespace medrelax {

namespace {

/// w^exponent, read from `powers` (powers[e] = std::pow(w, double(e)))
/// when the exponent is one of its integers. Equation 4's exponents are
/// sums of small integers, exact in a double (graph/geometry.h).
double Power(const std::array<double, SimilarityModel::kPowerTableSize>& powers,
             double w, double exponent) {
  if (exponent >= 0.0 &&
      exponent < static_cast<double>(SimilarityModel::kPowerTableSize)) {
    const auto e = static_cast<size_t>(exponent);
    if (static_cast<double>(e) == exponent) return powers[e];
  }
  return std::pow(w, exponent);
}

}  // namespace

SimilarityModel::SimilarityModel(const ConceptDag* dag,
                                 const FrequencyModel* freq,
                                 const SimilarityOptions& options)
    : dag_(dag), freq_(freq), options_(options) {
  for (size_t e = 0; e < kPowerTableSize; ++e) {
    gen_powers_[e] =
        std::pow(options_.generalization_weight, static_cast<double>(e));
    spec_powers_[e] =
        std::pow(options_.specialization_weight, static_cast<double>(e));
  }
}

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

double SimilarityModel::Penalty(const PairGeometry& g) const {
  return Power(gen_powers_, options_.generalization_weight, g.gen_exponent) *
         Power(spec_powers_, options_.specialization_weight, g.spec_exponent);
}

double SimilarityModel::PathPenalty(ConceptId from, ConceptId to) const {
  if (!options_.use_path_penalty) return 1.0;
  if (from == to) return 1.0;
  const PairGeometry g = Geometry(from, to);
  if (!g.connected) return 0.0;
  return Penalty(g);
}

SimilarityModel::ScoreSource SimilarityModel::Source(ConceptId from,
                                                     ContextId ctx) const {
  ScoreSource source;
  source.concept_id = from;
  const ContextId context = EffectiveContext(ctx);
  // The relaxer takes the source before it knows whether any candidate
  // will be scored, so an id past the table reads nothing here; its IC
  // of 0 is never used.
  if (context != kNoContext && context > freq_->num_contexts()) {
    return source;
  }
  source.ic_row = freq_->IcRowOf(context);
  if (from < freq_->num_concepts()) source.ic = source.ic_row[from];
  return source;
}

double SimilarityModel::ScoreGeometry(const PairGeometry& g,
                                      const ScoreSource& from,
                                      ConceptId to) const {
  if (from.concept_id == to) return 1.0;
  if (!g.connected || g.lcs.empty()) return 0.0;

  const double penalty = options_.use_path_penalty ? Penalty(g) : 1.0;
  double lcs_ic = 0.0;
  for (ConceptId c : g.lcs) lcs_ic += from.ic_row[c];
  lcs_ic /= static_cast<double>(g.lcs.size());
  double denom = from.ic + from.ic_row[to];
  if (denom <= 1e-12) return 0.0;
  return penalty * 2.0 * lcs_ic / denom;
}

double SimilarityModel::Similarity(ConceptId from, ConceptId to,
                                   ContextId ctx) const {
  const size_t num_concepts = freq_->num_concepts();
  for (ConceptId id : {from, to}) {
    MEDRELAX_CHECK(id < num_concepts)
        << "concept " << id << " is out of range: the frequency model has "
        << num_concepts << " concepts";
  }
  MEDRELAX_CHECK(ctx == kNoContext || ctx < freq_->num_contexts())
      << "context " << ctx << " is out of range: the frequency model has "
      << freq_->num_contexts() << " contexts";
  if (from == to) return 1.0;
  return ScoreGeometry(Geometry(from, to), Source(from, ctx), to);
}

}  // namespace medrelax
