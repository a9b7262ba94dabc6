#ifndef MEDRELAX_RELAX_INGESTION_H_
#define MEDRELAX_RELAX_INGESTION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "medrelax/common/result.h"
#include "medrelax/corpus/document.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/kb/kb_query.h"
#include "medrelax/matching/matcher.h"
#include "medrelax/ontology/context.h"
#include "medrelax/relax/frequency_model.h"

namespace medrelax {

/// Knobs of the offline external-knowledge-source ingestion (Algorithm 1).
struct IngestionOptions {
  /// tf-idf-adjust raw mention counts (Section 5.1). Off = raw counts.
  bool use_tfidf = true;
  /// Laplace smoothing added before frequency normalization so unmentioned
  /// concepts keep a finite IC.
  double ic_smoothing = 1.0;
};

/// A concept-indexed CSR of 32-bit values (instance or context ids): the
/// values of concept c are values[offsets[c] .. offsets[c + 1]). It owns
/// its arrays when built from groups (RunIngestion) or borrows them from
/// a mapped image, whose sections have this layout (flat/format.h), so
/// a served snapshot reads them in place. Concepts past the offsets —
/// every concept of a default-constructed CSR — have no values. Copies
/// share the (immutable) owned arrays.
class ConceptCsr {
 public:
  ConceptCsr() = default;

  /// Owns one group per concept: `groups[c]` are the values of c, in order.
  [[nodiscard]] static ConceptCsr FromGroups(
      const std::vector<std::vector<uint32_t>>& groups);

  /// Reads `offsets` and `values`, whose storage must outlive the CSR.
  /// The caller vouches for the layout (the image reader checks that the
  /// offsets start at 0, never decrease and end at values.size()).
  [[nodiscard]] static ConceptCsr Borrow(std::span<const uint64_t> offsets,
                                         std::span<const uint32_t> values);

  /// Concepts the offsets cover.
  [[nodiscard]] size_t num_concepts() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// The values of concept `id`; empty past num_concepts().
  [[nodiscard]] std::span<const uint32_t> operator[](ConceptId id) const {
    if (id >= num_concepts()) return {};
    return values_.subspan(offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

  /// How many values concept `id` has, without touching them.
  [[nodiscard]] size_t count(ConceptId id) const {
    return id >= num_concepts()
               ? 0
               : static_cast<size_t>(offsets_[id + 1] - offsets_[id]);
  }

  /// The layout itself, for the image writer.
  [[nodiscard]] std::span<const uint64_t> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const uint32_t> values() const { return values_; }

 private:
  struct Storage {
    std::vector<uint64_t> offsets;
    std::vector<uint32_t> values;
  };

  /// Null when the arrays are borrowed.
  std::shared_ptr<const Storage> storage_;
  std::span<const uint64_t> offsets_;
  std::span<const uint32_t> values_;
};

/// Everything Algorithm 1 returns: C, F, M, FEC — plus reverse indexes the
/// online phase needs.
struct IngestionResult {
  /// C: the possible contexts, interned.
  ContextRegistry contexts;
  /// F: per-(external concept, context) frequencies, normalized.
  FrequencyModel frequencies{0, 0};
  /// M: instance -> external concept mappings.
  std::vector<std::pair<InstanceId, ConceptId>> mappings;
  /// FEC: flag per external concept — true iff some KB instance maps to it.
  std::vector<bool> flagged;
  /// Reverse of M: external concept -> the instances mapped to it, in
  /// ascending id (Algorithm 2 line 7 materializes results through this).
  ConceptCsr concept_instances;
  /// Contexts each external concept participates in (ranges of the mapped
  /// instances' ontology concepts), in first-seen order.
  ConceptCsr concept_contexts;
  /// Number of KB instances the mapper could not map.
  size_t unmapped_instances = 0;
};

/// Runs the offline ingestion (Algorithm 1) of the external knowledge
/// source `eks` against the KB:
///   1. context generation from the domain ontology (lines 1-4);
///   2. instance -> external-concept mappings via `mapper`, flagging
///      mapped concepts (lines 5-11);
///   3. per-context frequency propagation in children-first topological
///      order (Equation 2, lines 12-18), seeding |A| from `corpus` mention
///      statistics (tf-idf adjusted) when a corpus is given, or from the
///      intrinsic structure (|A| = 1 per concept — the corpus-free
///      QR-no-corpus configuration) otherwise.
///
/// Lines 19-23 (shortcut edges for flagged concepts) are not applied:
/// every shortcut spans exactly its native distance, so the relaxation
/// radius means the same without them, and `eks` stays as it is
/// (ShortcutEdges in graph/traversal.h computes them).
///
/// Fails if `eks` is not a single-rooted DAG.
[[nodiscard]]
Result<IngestionResult> RunIngestion(const KnowledgeBase& kb,
                                     const ConceptDag& eks,
                                     const MappingFunction& mapper,
                                     const Corpus* corpus,
                                     const IngestionOptions& options);

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_INGESTION_H_
