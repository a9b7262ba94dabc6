#include "medrelax/graph/traversal.h"

#include <algorithm>
#include <limits>

namespace medrelax {

namespace {

constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

// BFS over native edges in one direction; returns per-concept hop counts.
// Shortcut edges preserve original distances by construction, so original
// hop distances are exactly the native-edge BFS distances.
std::vector<uint32_t> DirectedDistances(const ConceptDag& dag, ConceptId start,
                                        bool upward) {
  std::vector<uint32_t> dist(dag.num_concepts(), kUnreachable);
  dist[start] = 0;
  std::vector<ConceptId> queue = {start};
  for (size_t head = 0; head < queue.size(); ++head) {
    ConceptId u = queue[head];
    const std::span<const DagEdge> edges =
        upward ? dag.parents(u) : dag.children(u);
    for (const DagEdge& e : edges) {
      if (e.is_shortcut()) continue;
      if (dist[e.target] == kUnreachable) {
        dist[e.target] = dist[u] + 1;
        queue.push_back(e.target);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<ConceptId> Ancestors(const ConceptDag& dag, ConceptId id) {
  std::vector<uint32_t> dist = DirectedDistances(dag, id, /*upward=*/true);
  std::vector<ConceptId> out;
  for (ConceptId c = 0; c < dag.num_concepts(); ++c) {
    if (c != id && dist[c] != kUnreachable) out.push_back(c);
  }
  return out;
}

std::vector<ConceptId> Descendants(const ConceptDag& dag, ConceptId id) {
  std::vector<uint32_t> dist = DirectedDistances(dag, id, /*upward=*/false);
  std::vector<ConceptId> out;
  for (ConceptId c = 0; c < dag.num_concepts(); ++c) {
    if (c != id && dist[c] != kUnreachable) out.push_back(c);
  }
  return out;
}

bool IsAncestorOf(const ConceptDag& dag, ConceptId ancestor,
                  ConceptId descendant) {
  if (ancestor == descendant) return false;
  // BFS upward from the descendant with early exit.
  std::vector<bool> seen(dag.num_concepts(), false);
  seen[descendant] = true;
  std::vector<ConceptId> queue = {descendant};
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const DagEdge& e : dag.parents(queue[head])) {
      if (e.is_shortcut()) continue;
      if (e.target == ancestor) return true;
      if (!seen[e.target]) {
        seen[e.target] = true;
        queue.push_back(e.target);
      }
    }
  }
  return false;
}

std::vector<Neighbor> NeighborsWithinRadius(const ConceptDag& dag,
                                            ConceptId start, uint32_t radius) {
  std::vector<Neighbor> out;
  if (radius == 0 || !dag.IsValid(start)) return out;
  std::vector<uint32_t> dist(dag.num_concepts(), kUnreachable);
  dist[start] = 0;
  // Dial queue: buckets[d] holds concepts tentatively at distance d; an
  // entry whose distance has since shrunk is stale and skipped.
  std::vector<std::vector<ConceptId>> buckets = {{start}};
  for (uint32_t d = 0; d < buckets.size(); ++d) {
    // Index-based loop: relaxations grow `buckets` but never bucket d.
    for (size_t i = 0; i < buckets[d].size(); ++i) {
      const ConceptId u = buckets[d][i];
      if (dist[u] != d) continue;
      if (d > 0) out.push_back({u, d});
      auto relax = [&](const DagEdge& e) {
        const uint32_t weight = HopWeight(e);
        if (weight > radius - d) return;
        const uint32_t candidate = d + weight;
        if (candidate < dist[e.target]) {
          dist[e.target] = candidate;
          if (candidate >= buckets.size()) buckets.resize(candidate + 1);
          buckets[candidate].push_back(e.target);
        }
      };
      for (const DagEdge& e : dag.parents(u)) relax(e);
      for (const DagEdge& e : dag.children(u)) relax(e);
    }
  }
  return out;
}

uint32_t UpDistance(const ConceptDag& dag, ConceptId from, ConceptId to) {
  return DirectedDistances(dag, from, /*upward=*/true)[to];
}

std::vector<uint32_t> UpDistances(const ConceptDag& dag, ConceptId start) {
  return DirectedDistances(dag, start, /*upward=*/true);
}

std::vector<uint32_t> DownDistances(const ConceptDag& dag, ConceptId start) {
  return DirectedDistances(dag, start, /*upward=*/false);
}

}  // namespace medrelax
