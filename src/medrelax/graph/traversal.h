#ifndef MEDRELAX_GRAPH_TRAVERSAL_H_
#define MEDRELAX_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// All (direct and transitive) generalizations of `id`, excluding `id`
/// itself (the paper's "ancestors", Section 2.2).
std::vector<ConceptId> Ancestors(const ConceptDag& dag, ConceptId id);

/// All (direct and transitive) specializations of `id`, excluding `id`
/// itself (the paper's "descendants").
std::vector<ConceptId> Descendants(const ConceptDag& dag, ConceptId id);

/// True iff `ancestor` subsumes `descendant` (strictly).
bool IsAncestorOf(const ConceptDag& dag, ConceptId ancestor,
                  ConceptId descendant);

/// A concept reached by the radius-bounded search together with its
/// distance from the start concept.
struct Neighbor {
  ConceptId id = kInvalidConcept;
  /// Shortest distance in native subsumption hops. A shortcut edge of
  /// Algorithm 1 would span exactly its native distance (ShortcutEdges),
  /// so the radius-r ball is the same with or without shortcuts.
  uint32_t hops = 0;
};

/// Concepts within `radius` hops of `start`, traversing edges in both
/// directions (generalization and specialization), excluding `start`
/// itself, in nondecreasing hop order: an eager bounded BFS over the
/// whole DAG with a |V|-sized distance array. The reference the
/// relaxer's core search (flagged_core.h) is tested against; serving
/// never calls it.
std::vector<Neighbor> NeighborsWithinRadius(const ConceptDag& dag,
                                            ConceptId start, uint32_t radius);

/// Shortest directed generalization distance in hops from `from` up to
/// `to`, or UINT32_MAX when `to` does not subsume `from`.
uint32_t UpDistance(const ConceptDag& dag, ConceptId from, ConceptId to);

/// Shortest generalization distances in hops from `start` to every
/// ancestor; UINT32_MAX where unreachable. Index = ConceptId.
std::vector<uint32_t> UpDistances(const ConceptDag& dag, ConceptId start);

/// Shortest specialization distances in hops from `start` down to every
/// descendant; UINT32_MAX where unreachable. Index = ConceptId.
std::vector<uint32_t> DownDistances(const ConceptDag& dag, ConceptId start);

/// One application-specific shortcut edge of Algorithm 1 (lines 19-23):
/// `child` ⊑ `ancestor`, standing for the `distance` >= 2 native hops of
/// the shortest path it replaces.
struct ShortcutEdge {
  ConceptId child = kInvalidConcept;
  ConceptId ancestor = kInvalidConcept;
  uint32_t distance = 0;

  bool operator==(const ShortcutEdge&) const = default;
};

/// The paper's shortcut rule as a pure function (Section 5.1, "Sparsity
/// of external knowledge source"): every flagged concept gets an edge to
/// each non-adjacent ancestor, and every unflagged non-adjacent
/// descendant of a flagged concept an edge to it, each carrying its
/// native up-distance. Ordered by flagged concept, then its upward edges
/// by ancestor id, then its downward ones by descendant id; no pair
/// appears twice. Ids past the end of `flagged` are unflagged. Two
/// |V|-sized BFS per flagged concept.
///
/// Ingestion does not apply it: every shortcut spans exactly its native
/// distance, so no radius ball changes with or without them, and the
/// served DAG keeps native edges only. The Figure 5 tests, the frequency
/// walkthrough and the ablation bench call it to show the rule and the
/// invariance.
std::vector<ShortcutEdge> ShortcutEdges(const ConceptDag& dag,
                                        const std::vector<bool>& flagged);

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_TRAVERSAL_H_
