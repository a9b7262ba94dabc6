#ifndef MEDRELAX_GRAPH_TRAVERSAL_H_
#define MEDRELAX_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// All (direct and transitive) generalizations of `id` over native edges,
/// excluding `id` itself (the paper's "ancestors", Section 2.2).
std::vector<ConceptId> Ancestors(const ConceptDag& dag, ConceptId id);

/// All (direct and transitive) specializations of `id` over native edges,
/// excluding `id` itself (the paper's "descendants").
std::vector<ConceptId> Descendants(const ConceptDag& dag, ConceptId id);

/// True iff `ancestor` subsumes `descendant` (strictly; native edges).
bool IsAncestorOf(const ConceptDag& dag, ConceptId ancestor,
                  ConceptId descendant);

/// A concept reached by the radius-bounded search together with its
/// distance from the start concept.
struct Neighbor {
  ConceptId id = kInvalidConcept;
  /// Shortest distance in *original* hops: a native edge counts 1 and a
  /// shortcut edge counts its annotated original distance. The radius-r
  /// ball is therefore identical whether or not shortcut edges were
  /// materialized — shortcuts are a traversal-latency lever (one edge
  /// relaxation spans several original hops), never a semantics change
  /// (DESIGN.md ablation promise: shortcut edges on/off yields the same
  /// candidates).
  uint32_t hops = 0;
};

/// The search weight of an edge: its original distance, with a malformed
/// zero clamped to 1 so a Dial queue always advances.
inline uint32_t HopWeight(const DagEdge& e) {
  return e.original_distance == 0 ? 1 : e.original_distance;
}

/// Concepts within `radius` original hops of `start`, traversing edges in
/// both directions (generalization and specialization), excluding `start`
/// itself, in nondecreasing hop order: an eager bounded Dijkstra over the
/// whole DAG with a |V|-sized distance array. The reference the
/// relaxer's core search (flagged_core.h) is tested against; serving
/// never calls it.
std::vector<Neighbor> NeighborsWithinRadius(const ConceptDag& dag,
                                            ConceptId start, uint32_t radius);

/// Shortest directed generalization distance from `from` up to `to` in
/// *original* hops (shortcuts contribute their annotated distance), or
/// UINT32_MAX when `to` does not subsume `from`.
uint32_t UpDistance(const ConceptDag& dag, ConceptId from, ConceptId to);

/// Original-hop shortest generalization distances from `start` to every
/// ancestor; UINT32_MAX where unreachable. Index = ConceptId.
std::vector<uint32_t> UpDistances(const ConceptDag& dag, ConceptId start);

/// Original-hop shortest specialization distances from `start` down to every
/// descendant; UINT32_MAX where unreachable. Index = ConceptId.
std::vector<uint32_t> DownDistances(const ConceptDag& dag, ConceptId start);

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_TRAVERSAL_H_
