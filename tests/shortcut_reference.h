// Test-side reference for the shortcut-invariance argument (DESIGN.md,
// design choice 2): the served DAG holds native edges only, because a
// shortcut edge of Algorithm 1 spans exactly its native distance and so
// changes no hop count. ShortcutSearch walks a list of shortcut edges as
// well as the native ones, so a test can check a native-only search
// against the search the paper's customized graph would run.

#ifndef MEDRELAX_TESTS_SHORTCUT_REFERENCE_H_
#define MEDRELAX_TESTS_SHORTCUT_REFERENCE_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {

/// The whole-DAG radius search over the native edges (one hop each) and
/// the given shortcut edges (`distance` hops each), both directions: a
/// bucketed Dijkstra with a |V|-sized distance array per call.
class ShortcutSearch {
 public:
  ShortcutSearch(const ConceptDag& dag,
                 const std::vector<ShortcutEdge>& shortcuts)
      : dag_(&dag), extra_(dag.num_concepts()) {
    for (const ShortcutEdge& e : shortcuts) {
      extra_[e.child].emplace_back(e.ancestor, e.distance);
      extra_[e.ancestor].emplace_back(e.child, e.distance);
    }
  }

  /// Concepts within `radius` hops of `start`, excluding it, in
  /// nondecreasing hop order (NeighborsWithinRadius's contract).
  [[nodiscard]] std::vector<Neighbor> Within(ConceptId start,
                                             uint32_t radius) const {
    constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();
    std::vector<Neighbor> out;
    if (radius == 0 || !dag_->IsValid(start)) return out;
    std::vector<uint32_t> dist(dag_->num_concepts(), kUnreachable);
    dist[start] = 0;
    std::vector<std::vector<ConceptId>> buckets = {{start}};
    for (uint32_t d = 0; d < buckets.size(); ++d) {
      for (size_t i = 0; i < buckets[d].size(); ++i) {
        const ConceptId u = buckets[d][i];
        if (dist[u] != d) continue;  // stale: reached shorter since
        if (d > 0) out.push_back({u, d});
        auto relax = [&](ConceptId v, uint32_t weight) {
          if (weight > radius - d || d + weight >= dist[v]) return;
          dist[v] = d + weight;
          if (dist[v] >= buckets.size()) buckets.resize(dist[v] + 1);
          buckets[dist[v]].push_back(v);
        };
        for (ConceptId v : dag_->parents(u)) relax(v, 1);
        for (ConceptId v : dag_->children(u)) relax(v, 1);
        for (const auto& [v, weight] : extra_[u]) relax(v, weight);
      }
    }
    return out;
  }

 private:
  const ConceptDag* dag_;
  /// (other end, distance) of every shortcut at each concept.
  std::vector<std::vector<std::pair<ConceptId, uint32_t>>> extra_;
};

}  // namespace medrelax

#endif  // MEDRELAX_TESTS_SHORTCUT_REFERENCE_H_
