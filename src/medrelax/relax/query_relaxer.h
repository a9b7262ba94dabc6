#ifndef MEDRELAX_RELAX_QUERY_RELAXER_H_
#define MEDRELAX_RELAX_QUERY_RELAXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "medrelax/common/result.h"
#include "medrelax/graph/flagged_core.h"
#include "medrelax/matching/matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/relax_stats.h"
#include "medrelax/relax/similarity.h"

namespace medrelax {

/// Knobs of the online query relaxation (Algorithm 2).
struct RelaxationOptions {
  /// Search radius r in taxonomy hops. Shortcut edges would not change
  /// the radius-r ball: they carry their pre-customization distance
  /// (Section 4.2), so the same concepts are reachable with or without
  /// them, and the DAG keeps native edges only.
  uint32_t radius = 4;
  /// Grow the radius when fewer than k candidates are found ("dynamically
  /// decided if a fixed r cannot provide k results", Section 5.2).
  bool dynamic_radius = true;
  /// Upper bound for dynamic growth.
  uint32_t max_radius = 16;
  /// k: how many results to return.
  size_t top_k = 10;
};

/// One relaxed concept with its score and the KB instances it maps to.
struct ScoredConcept {
  ConceptId concept_id = kInvalidConcept;
  double similarity = 0.0;
  std::vector<InstanceId> instances;
};

/// Outcome of relaxing one [query term, context] input.
struct RelaxationOutcome {
  /// The external concept Q the query term resolved to.
  ConceptId query_concept = kInvalidConcept;
  /// Ranked flagged concepts (descending similarity), truncated once k
  /// instances are covered. The last concept's instance list may extend
  /// past k; `instances` below is the truncated answer.
  std::vector<ScoredConcept> concepts;
  /// Res of Algorithm 2: the union of the concepts' instances in rank
  /// order, truncated to exactly k entries (fewer only when the whole
  /// neighborhood covers fewer than k).
  std::vector<InstanceId> instances;
  /// Radius actually used (>= options.radius when dynamic growth kicked in).
  uint32_t effective_radius = 0;
  /// Instrumentation for this relaxation.
  RelaxStats stats;
};

/// The online query relaxation engine (Algorithm 2 + Equation 5).
///
/// Borrows the external DAG, the ingestion
/// result, and a mapping function for resolving query terms; all must
/// outlive the relaxer.
///
/// The constructor peels the DAG against `ingestion->flagged` into a
/// FlaggedCore (O(V + E), under 1 ms at 64k concepts), and every candidate
/// search walks that core. So the DAG must gain no concepts or native
/// edges, and the flags must not change, once the relaxer exists
/// (a Snapshot freezes both); build a new relaxer after such a change.
///
/// Thread-safe: all entry points are const and the underlying
/// SimilarityModel holds no mutable state, so one relaxer can serve
/// concurrent queries. The scratch (a RadiusExpander, a GeometryEngine,
/// and the neighbor, candidate and score vectors) is thread_local and
/// shared by every relaxer on the thread: it is epoch-stamped or cleared
/// per query, so a query allocates and fills nothing |V|-sized, and
/// RelaxConceptWithK, which every entry point reaches, re-anchors it on
/// entry, so no call inherits state from
/// another DAG or an earlier call. A warm thread allocates only the
/// returned outcome: one ScoredConcept per concept that fills k.
class QueryRelaxer {
 public:
  QueryRelaxer(const ConceptDag* eks, const IngestionResult* ingestion,
               const MappingFunction* mapper,
               const SimilarityOptions& similarity_options,
               const RelaxationOptions& relaxation_options);

  /// Full Algorithm 2: resolves `term` to an external concept and returns
  /// the top-k semantically related KB instances under `context`
  /// (kNoContext aggregates frequencies over all contexts).
  /// Fails with NotFound when the term maps to no external concept.
  [[nodiscard]] Result<RelaxationOutcome> Relax(std::string_view term,
                                  ContextId context) const;

  /// Concept-level entry point used when the query concept is already
  /// known (evaluation harness; NLQ integration).
  [[nodiscard]]
  RelaxationOutcome RelaxConcept(ConceptId query, ContextId context) const;

  /// Like RelaxConcept but with an explicit k, so wrappers (e.g. the
  /// relevance-feedback layer) can over-fetch candidates before re-ranking.
  /// The core of Algorithm 2 on this thread's scratch, re-anchored on
  /// entry: incremental radius growth, per-candidate geometry, scoring
  /// into flat records, ranking, exact-k truncation.
  [[nodiscard]] RelaxationOutcome RelaxConceptWithK(ConceptId query,
                                                    ContextId context,
                                                    size_t k) const;

  /// The underlying similarity model (exposed for diagnostics and tests).
  [[nodiscard]]
  const SimilarityModel& similarity() const { return similarity_; }

  [[nodiscard]]
  const RelaxationOptions& options() const { return relaxation_options_; }

 private:
  const ConceptDag* eks_;
  const IngestionResult* ingestion_;
  const MappingFunction* mapper_;
  SimilarityModel similarity_;
  RelaxationOptions relaxation_options_;
  /// The DAG peeled to what a search for flagged concepts can reach.
  FlaggedCore core_;
};

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_QUERY_RELAXER_H_
