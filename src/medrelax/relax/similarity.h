#ifndef MEDRELAX_RELAX_SIMILARITY_H_
#define MEDRELAX_RELAX_SIMILARITY_H_

#include <vector>

#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/geometry.h"
#include "medrelax/graph/lcs.h"
#include "medrelax/graph/paths.h"
#include "medrelax/ontology/context.h"
#include "medrelax/relax/frequency_model.h"

namespace medrelax {

/// Knobs of the combined similarity measure. The defaults reproduce the
/// full QR configuration; the ablation flags realize the paper's variants
/// QR-no-context (ignore the query context, aggregate frequencies) and the
/// plain IC baseline (no path penalty).
struct SimilarityOptions {
  /// Weight of a generalization hop (w in Equation 4); the paper's
  /// empirical study sets 0.9 (Section 5.2), learnable via
  /// relax/weight_learner.h.
  double generalization_weight = 0.9;
  /// Weight of a specialization hop; the paper sets 1.0.
  double specialization_weight = 1.0;
  /// Apply the direction-aware path penalty p_{A,B} (Equation 4). Disabled
  /// = the plain IC measure of Equation 3 (the `IC` baseline of Table 2).
  bool use_path_penalty = true;
  /// Use the query context's frequency table; disabled = aggregate over
  /// all contexts (the `QR-no-context` variant of Table 2).
  bool use_context = true;
};

/// The paper's similarity measure (Section 5.2):
///   sim(A, B) = p_{A,B} * sim_IC(A, B)                      (Equation 5)
/// with the IC similarity of Equation 3 evaluated on context-conditioned
/// frequencies and the direction-weighted path penalty of Equation 4.
///
/// Thread-safe: the model holds no mutable state, so one model can serve
/// concurrent queries (QueryRelaxer::RelaxBatch relies on this). The
/// paper's "retrieves the pre-computed similarity" step is realized by
/// scoring each candidate's geometry as the relaxer computes it
/// (QueryRelaxer, through a GeometryEngine); that is cheaper than a
/// lookup table of pair geometries.
class SimilarityModel {
 public:
  /// Borrows `dag` and `freq`, which must outlive the model.
  SimilarityModel(const ConceptDag* dag, const FrequencyModel* freq,
                  const SimilarityOptions& options);

  [[nodiscard]] const SimilarityOptions& options() const { return options_; }

  /// IC under the effective context (aggregated when context is disabled
  /// or kNoContext).
  [[nodiscard]] double Ic(ConceptId id, ContextId ctx) const;

  /// sim_IC of Equation 3, with the footnote-1 LCS policy: shortest-path
  /// tie-break, then average IC over remaining ties.
  [[nodiscard]] double SimIc(ConceptId a, ConceptId b, ContextId ctx) const;

  /// p_{A,B} of Equation 4 over the shortest taxonomic path *from* `from`
  /// *to* `to` (direction matters: Example 4 / Figure 6).
  [[nodiscard]] double PathPenalty(ConceptId from, ConceptId to) const;

  /// p for an explicit hop sequence (exposed for tests and the weight
  /// learner): prod_i w_i^(D-i), i one-based.
  [[nodiscard]]
  double PathPenaltyForHops(const std::vector<HopDirection>& hops) const;

  /// The combined measure of Equation 5.
  [[nodiscard]]
  double Similarity(ConceptId from, ConceptId to, ContextId ctx) const;

  /// Equation 5 evaluated on an externally supplied geometry (the
  /// QueryRelaxer hot path computes geometries through a shared-frontier
  /// GeometryEngine and scores them here). Returns 1 when from == to.
  [[nodiscard]] double ScoreGeometry(const PairGeometry& g, ConceptId from,
                                     ConceptId to, ContextId ctx) const;

  /// The geometry of (from, to) by the naive per-pair formulation (four
  /// full-graph traversals per call); the reference the shared-frontier
  /// GeometryEngine is property-tested against.
  [[nodiscard]] PairGeometry Geometry(ConceptId from, ConceptId to) const;

 private:
  [[nodiscard]] ContextId EffectiveContext(ContextId ctx) const;

  const ConceptDag* dag_;
  const FrequencyModel* freq_;
  const SimilarityOptions options_;
};

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_SIMILARITY_H_
