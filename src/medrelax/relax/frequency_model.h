#ifndef MEDRELAX_RELAX_FREQUENCY_MODEL_H_
#define MEDRELAX_RELAX_FREQUENCY_MODEL_H_

#include <cstddef>
#include <cstdint>
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
///
/// Most concepts share one value per table: every concept the corpus
/// never reaches sits at s / (raw(root) + s), and without a corpus every
/// leaf at (1 + s) / (raw(root) + s). So a normalized model is stored
/// sparsely, in one form whether it was built or borrowed from an image:
/// a per-concept column in 0..m and (num_contexts + 1) rows of m + 1
/// values, column m holding the row's default, its majority value
/// (Normalize takes a Boyer-Moore vote). A concept has a column of
/// its own only if, in some row, its value differs bitwise from that
/// row's default, and columns go in ascending concept id. IC is kept
/// beside the frequencies in the same shape, so neither lookup branches
/// or takes a logarithm.
class FrequencyModel {
 public:
  /// `num_contexts` + 1 tables are kept: one per context plus the
  /// aggregated (context-agnostic) table used when no context is available
  /// at query time (Section 5.2, "Contextual information").
  FrequencyModel(size_t num_concepts, size_t num_contexts,
                 double smoothing = 1.0);

  /// Builds an already-normalized model whose frequencies *borrow*
  /// `columns` (one per concept, each at most m) and `rows`
  /// ((num_contexts + 1) x (m + 1) values, aggregate row last) — the
  /// zero-copy path of the flat snapshot image (flat/snapshot_codec.h),
  /// which validates both first. Both must outlive the model; the mapped
  /// image owner guarantees this by member-declaration order. Only the
  /// IC table is computed, one logarithm per row entry. A borrowed model
  /// rejects SetRaw and Normalize.
  static FrequencyModel FromSparse(size_t num_contexts, double smoothing,
                                   std::span<const uint32_t> columns,
                                   std::span<const double> rows);

  // Built models point into their own vectors, which a move carries
  // along and a copy would not.
  FrequencyModel(FrequencyModel&&) noexcept = default;
  FrequencyModel& operator=(FrequencyModel&&) noexcept = default;
  FrequencyModel(const FrequencyModel&) = delete;
  FrequencyModel& operator=(const FrequencyModel&) = delete;

  [[nodiscard]] size_t num_concepts() const { return num_concepts_; }
  [[nodiscard]] size_t num_contexts() const { return num_contexts_; }
  [[nodiscard]] double smoothing() const { return smoothing_; }

  /// Sets the raw (propagated, un-normalized) frequency of (concept, ctx).
  void SetRaw(ConceptId id, ContextId ctx, double raw);

  /// Raw propagated frequency of (concept, ctx).
  [[nodiscard]] double Raw(ConceptId id, ContextId ctx) const;

  /// Finalizes the model: computes the aggregated table as the per-concept
  /// sum over contexts, normalizes every table by its root value, and
  /// stores the result in the sparse form. `root` is the DAG root
  /// (normalized frequency exactly 1).
  void Normalize(ConceptId root);

  /// Normalized frequency in (0, 1]; ctx == kNoContext selects the
  /// aggregated table.
  [[nodiscard]] double Frequency(ConceptId id, ContextId ctx) const;

  /// Information content IC = -log(frequency) (Equation 1); 0 at the root,
  /// growing with specificity. ctx == kNoContext uses aggregation.
  [[nodiscard]] double Ic(ConceptId id, ContextId ctx) const;

  /// The IC of every concept under one table, for a loop that scores
  /// many concepts under the same context.
  class IcRow {
   public:
    IcRow() = default;
    [[nodiscard]] double operator[](ConceptId id) const {
      return row_[columns_[id]];
    }

   private:
    friend class FrequencyModel;
    IcRow(const double* row, const uint32_t* columns)
        : row_(row), columns_(columns) {}
    const double* row_ = nullptr;
    const uint32_t* columns_ = nullptr;
  };
  /// ctx == kNoContext selects the aggregated table.
  [[nodiscard]] IcRow IcRowOf(ContextId ctx) const;

  /// The sparse form the flat image serializes: m, the per-concept
  /// columns and the rows. Require a normalized model.
  [[nodiscard]] size_t num_columns() const;
  [[nodiscard]] std::span<const uint32_t> columns() const;
  [[nodiscard]] std::span<const double> rows() const;

 private:
  FrequencyModel() = default;
  [[nodiscard]] size_t RowOf(ContextId ctx) const {
    return ctx == kNoContext ? num_contexts_ : ctx;
  }
  [[nodiscard]] size_t Index(ConceptId id, ContextId ctx) const;
  /// Fills stride_ and the IC table from rows_, and marks the model
  /// normalized.
  void FillIc();

  size_t num_concepts_ = 0;
  size_t num_contexts_ = 0;
  double smoothing_ = 1.0;
  bool normalized_ = false;
  /// Layout: [ctx][concept] flattened; last "context" row is the aggregate.
  /// Empty for a borrowed model.
  std::vector<double> raw_;
  /// A built model's sparse form; empty when it is borrowed.
  std::vector<uint32_t> owned_columns_;
  std::vector<double> owned_rows_;
  /// The sparse form served: the owned vectors or an image's sections.
  std::span<const uint32_t> columns_;
  std::span<const double> rows_;
  /// m + 1: the length of one row.
  size_t stride_ = 0;
  /// IC of every entry of rows_, same shape.
  std::vector<double> ic_;
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
