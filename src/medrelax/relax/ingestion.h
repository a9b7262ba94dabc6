#ifndef MEDRELAX_RELAX_INGESTION_H_
#define MEDRELAX_RELAX_INGESTION_H_

#include <cstdint>
#include <unordered_map>
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
  /// Add application-specific shortcut edges (Section 5.1, "Sparsity of
  /// external knowledge source"); the ablation bench switches this off.
  bool add_shortcut_edges = true;
  /// Cap on the original distance a shortcut may replace; 0 = unlimited
  /// (the paper's formulation). Large flagged fan-outs can be bounded here.
  uint32_t max_shortcut_distance = 0;
  /// Laplace smoothing added before frequency normalization so unmentioned
  /// concepts keep a finite IC.
  double ic_smoothing = 1.0;
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
  /// Reverse of M: external concept -> the instances mapped to it
  /// (Algorithm 2 line 7 materializes results through this).
  std::unordered_map<ConceptId, std::vector<InstanceId>> concept_instances;
  /// Contexts each external concept participates in (ranges of the mapped
  /// instances' ontology concepts).
  std::unordered_map<ConceptId, std::vector<ContextId>> concept_contexts;
  /// Number of KB instances the mapper could not map.
  size_t unmapped_instances = 0;
  /// Shortcut edges added to the external source.
  size_t shortcuts_added = 0;
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
///      QR-no-corpus configuration) otherwise;
///   4. shortcut-edge insertion for flagged concepts (lines 19-23):
///      `*eks` is rebuilt once with the shortcuts added.
///
/// Fails if `eks` is not a single-rooted DAG.
[[nodiscard]]
Result<IngestionResult> RunIngestion(const KnowledgeBase& kb, ConceptDag* eks,
                                     const MappingFunction& mapper,
                                     const Corpus* corpus,
                                     const IngestionOptions& options);

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_INGESTION_H_
