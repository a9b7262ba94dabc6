#ifndef MEDRELAX_GRAPH_PATHS_H_
#define MEDRELAX_GRAPH_PATHS_H_

#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// Direction of one hop along a taxonomic path, as seen walking from the
/// query-term concept towards the candidate (Section 5.2, Example 4):
/// following a subsumption edge upward is a generalization, downward a
/// specialization.
enum class HopDirection : uint8_t {
  kGeneralization,
  kSpecialization,
};

/// A shortest up-then-down path between two concepts through a common
/// subsumer, in subsumption hops. This is the |D|-hop path of
/// Equation (4).
struct TaxonomicPath {
  /// True iff the two concepts are connected (always true in a rooted DAG).
  bool found = false;
  /// The apex (common subsumer) the path climbs to; equals `from` or `to`
  /// for pure specialization / generalization paths.
  ConceptId apex = kInvalidConcept;
  /// Per-hop directions from `from` to `to`: `up` generalizations followed
  /// by `down` specializations. Empty when from == to.
  std::vector<HopDirection> hops;

  /// |D| of Equation (4).
  [[nodiscard]]
  uint32_t length() const { return static_cast<uint32_t>(hops.size()); }
};

/// Computes the shortest (in hops) generalize-then-specialize path
/// from `from` to `to`. Among apexes with equal total length, the one with
/// the fewest generalization hops wins (generalizations are the penalized
/// direction, so this is the path a ranker would prefer).
TaxonomicPath ShortestTaxonomicPath(const ConceptDag& dag, ConceptId from,
                                    ConceptId to);

/// Shortest hop distance |shortestPath(A, B)| between a descendant A and
/// its ancestor B, the distance a shortcut edge carries (Algorithm 1 line
/// 21; ShortcutEdges in traversal.h). Returns UINT32_MAX if B does not
/// subsume A.
uint32_t SubsumptionDistance(const ConceptDag& dag, ConceptId descendant,
                             ConceptId ancestor);

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_PATHS_H_
