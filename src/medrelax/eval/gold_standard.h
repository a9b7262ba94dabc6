#ifndef MEDRELAX_EVAL_GOLD_STANDARD_H_
#define MEDRELAX_EVAL_GOLD_STANDARD_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/graph/paths.h"

namespace medrelax {

/// Options controlling what counts as a relevant relaxation.
struct GoldStandardOptions {
  /// Maximum true taxonomic distance (original hops, generalize-then-
  /// specialize) between query and candidate for the candidate to be
  /// semantically related. This operationalizes the SME judgment of
  /// Section 7.2 on the synthetic world.
  uint32_t max_distance = 3;
  /// Require the candidate to participate in the query context (the
  /// "hypothermia is not a treatment result for fever" rule).
  bool require_context_participation = true;
};

/// Ground-truth relevance judgments for relaxation results, derived from
/// the generator's true taxonomy and context-participation metadata —
/// the mechanical substitute for the paper's 20 SMEs.
class GoldStandard {
 public:
  /// Builds judgments over the candidate pool `flagged_concepts` (the
  /// concepts relaxation can return) for every (query, context) that will
  /// be evaluated. Distances are subsumption hops.
  GoldStandard(const GeneratedWorld* world,
               const GoldStandardOptions& options);

  /// True iff `candidate` is a relevant relaxation of `query` in `ctx`.
  /// `candidate == query` is relevant by definition (distance 0) when it
  /// participates in the context.
  [[nodiscard]]
  bool IsRelevant(ConceptId query, ContextId ctx, ConceptId candidate) const;

  /// Number of relevant candidates among `pool` for (query, ctx).
  size_t CountRelevant(ConceptId query, ContextId ctx,
                       const std::vector<ConceptId>& pool) const;

  [[nodiscard]] const GoldStandardOptions& options() const { return options_; }

 private:
  const GeneratedWorld* world_;
  GoldStandardOptions options_;
  /// Memoized true-distance queries: key = (query<<32)|candidate.
  mutable std::unordered_map<uint64_t, uint32_t> distance_cache_;

  [[nodiscard]] uint32_t TrueDistance(ConceptId a, ConceptId b) const;
};

}  // namespace medrelax

#endif  // MEDRELAX_EVAL_GOLD_STANDARD_H_
