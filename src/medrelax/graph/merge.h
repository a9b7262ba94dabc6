#ifndef MEDRELAX_GRAPH_MERGE_H_
#define MEDRELAX_GRAPH_MERGE_H_

#include <string>
#include <vector>

#include "medrelax/common/result.h"
#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// Options for merging two external knowledge sources.
struct MergeOptions {
  /// Name of the fresh top concept both source roots hang under.
  std::string merged_root_name = "merged knowledge source";
  /// Unify concepts across sources whose normalized canonical name or any
  /// synonym coincides (the lightweight cross-source alignment that makes
  /// a SNOMED + UMLS union more than a disjoint forest). When off, name
  /// collisions from the second source are disambiguated with a suffix.
  bool unify_by_name = true;
};

/// Outcome of a merge: the combined DAG plus per-source id translations.
struct MergeResult {
  ConceptDag dag;
  ConceptId root = kInvalidConcept;
  /// Source-A concept id -> merged id.
  std::vector<ConceptId> from_a;
  /// Source-B concept id -> merged id.
  std::vector<ConceptId> from_b;
  /// Concepts of B that were unified with an A concept.
  size_t unified = 0;
};

/// Merges two external knowledge sources under a fresh root (the paper
/// works against "external knowledge sources" in the plural — UMLS,
/// SNOMED CT, Gene Ontology; this is the union step that lets ingestion
/// and relaxation run over several at once).
///
/// Subsumption edges are copied. Fails with FailedPrecondition when unification would
/// introduce a subsumption cycle (contradictory hierarchies), leaving the
/// caller to resolve the conflict.
[[nodiscard]] Result<MergeResult> MergeExternalSources(const ConceptDag& a,
                                         const ConceptDag& b,
                                         const MergeOptions& options = {});

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_MERGE_H_
