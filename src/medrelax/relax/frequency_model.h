#ifndef MEDRELAX_RELAX_FREQUENCY_MODEL_H_
#define MEDRELAX_RELAX_FREQUENCY_MODEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "medrelax/common/result.h"

#include "medrelax/graph/concept_dag.h"
#include "medrelax/ontology/context.h"

namespace medrelax {

/// Per-(external concept, context) propagated frequencies and the derived
/// information content (Equations 1 and 2).
///
/// Raw frequencies are the tf-idf-adjusted mention weights of Section 5.1
/// propagated bottom-up over the subsumption DAG; they are then normalized
/// to [0, 1] by the root's frequency so "the root concept has the highest
/// normalized frequency of 1" and IC(root) = 0. A Laplace-style smoothing
/// constant keeps never-mentioned concepts at a finite IC.
class FrequencyModel {
 public:
  /// `num_contexts` + 1 tables are kept: one per context plus the
  /// aggregated (context-agnostic) table used when no context is available
  /// at query time (Section 5.2, "Contextual information").
  FrequencyModel(size_t num_concepts, size_t num_contexts,
                 double smoothing = 1.0);

  /// Builds an already-normalized model whose table *borrows*
  /// `normalized` — the zero-copy path of the flat snapshot image
  /// (flat/snapshot_codec.h). `normalized` must hold the full
  /// (num_contexts + 1) x num_concepts row-major layout (aggregate row
  /// last) and must outlive the model; the mapped image owner guarantees
  /// this by member-declaration order. A borrowed model allocates
  /// nothing, and rejects SetRaw and Normalize.
  static FrequencyModel FromNormalizedTable(size_t num_concepts,
                                            size_t num_contexts,
                                            double smoothing,
                                            std::span<const double> normalized);

  [[nodiscard]] size_t num_concepts() const { return num_concepts_; }
  [[nodiscard]] size_t num_contexts() const { return num_contexts_; }
  [[nodiscard]] double smoothing() const { return smoothing_; }

  /// Sets the raw (propagated, un-normalized) frequency of (concept, ctx).
  void SetRaw(ConceptId id, ContextId ctx, double raw);

  /// Raw propagated frequency of (concept, ctx).
  [[nodiscard]] double Raw(ConceptId id, ContextId ctx) const;

  /// Finalizes the model: computes the aggregated table as the per-concept
  /// sum over contexts, then normalizes every table by its root value.
  /// `root` is the DAG root (normalized frequency exactly 1).
  void Normalize(ConceptId root);

  /// Normalized frequency in (0, 1]; ctx == kNoContext selects the
  /// aggregated table.
  [[nodiscard]] double Frequency(ConceptId id, ContextId ctx) const;

  /// Information content IC = -log(frequency) (Equation 1); 0 at the root,
  /// growing with specificity. ctx == kNoContext uses aggregation.
  [[nodiscard]] double Ic(ConceptId id, ContextId ctx) const;

  /// The full normalized table, (num_contexts + 1) x num_concepts
  /// row-major with the aggregate row last — what the flat image
  /// serializes. Requires a normalized model.
  [[nodiscard]] std::span<const double> NormalizedTable() const;

 private:
  FrequencyModel() = default;
  [[nodiscard]] size_t Index(ConceptId id, ContextId ctx) const;

  size_t num_concepts_ = 0;
  size_t num_contexts_ = 0;
  double smoothing_ = 1.0;
  bool normalized_ = false;
  /// Layout: [ctx][concept] flattened; last "context" row is the aggregate.
  std::vector<double> raw_;
  std::vector<double> normalized_freq_;
  /// Non-empty iff the normalized table is borrowed from a mapped image
  /// rather than owned by normalized_freq_ (FromNormalizedTable). Never
  /// points into this object's own storage, so default copies/moves stay
  /// correct.
  std::span<const double> borrowed_;
};

/// Propagates direct per-context mention weights bottom-up over the DAG's
/// native subsumption edges (Equation 2: freq(A) = |A| + sum of direct
/// children's freq), then normalizes by the root (Section 5.1). The outer
/// index of `direct_per_context` is the context; each inner vector has one
/// entry per concept. Fails if the DAG is cyclic.
[[nodiscard]] Result<FrequencyModel> PropagateFrequencies(
    const ConceptDag& dag,
    const std::vector<std::vector<double>>& direct_per_context,
    ConceptId root, double smoothing = 1.0);

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_FREQUENCY_MODEL_H_
