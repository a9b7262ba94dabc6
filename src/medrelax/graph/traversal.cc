#include "medrelax/graph/traversal.h"

#include <algorithm>
#include <limits>

namespace medrelax {

namespace {

constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

// BFS in one direction; returns per-concept hop counts.
std::vector<uint32_t> DirectedDistances(const ConceptDag& dag, ConceptId start,
                                        bool upward) {
  std::vector<uint32_t> dist(dag.num_concepts(), kUnreachable);
  dist[start] = 0;
  std::vector<ConceptId> queue = {start};
  for (size_t head = 0; head < queue.size(); ++head) {
    ConceptId u = queue[head];
    for (ConceptId v : upward ? dag.parents(u) : dag.children(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
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
    for (ConceptId parent : dag.parents(queue[head])) {
      if (parent == ancestor) return true;
      if (!seen[parent]) {
        seen[parent] = true;
        queue.push_back(parent);
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
  std::vector<ConceptId> queue = {start};
  for (size_t head = 0; head < queue.size(); ++head) {
    const ConceptId u = queue[head];
    const uint32_t d = dist[u];
    if (d > 0) out.push_back({u, d});
    if (d == radius) continue;
    auto visit = [&](ConceptId v) {
      if (dist[v] == kUnreachable) {
        dist[v] = d + 1;
        queue.push_back(v);
      }
    };
    for (ConceptId v : dag.parents(u)) visit(v);
    for (ConceptId v : dag.children(u)) visit(v);
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

std::vector<ShortcutEdge> ShortcutEdges(const ConceptDag& dag,
                                        const std::vector<bool>& flagged) {
  auto is_flagged = [&](ConceptId v) {
    return v < flagged.size() && flagged[v];
  };
  // Adjacent pairs (distance 1) already have their native edge.
  auto want = [](uint32_t d) { return d >= 2 && d != kUnreachable; };
  std::vector<ShortcutEdge> out;
  for (ConceptId a = 0; a < dag.num_concepts(); ++a) {
    if (!is_flagged(a)) continue;
    // Flagged A: connect to every non-adjacent ancestor B.
    const std::vector<uint32_t> up = UpDistances(dag, a);
    for (ConceptId b = 0; b < dag.num_concepts(); ++b) {
      if (want(up[b])) out.push_back({a, b, up[b]});
    }
    // Flagged B (= a): connect every non-adjacent descendant to it. A
    // flagged descendant already has this edge from its own upward pass.
    const std::vector<uint32_t> down = DownDistances(dag, a);
    for (ConceptId d = 0; d < dag.num_concepts(); ++d) {
      if (!is_flagged(d) && want(down[d])) out.push_back({d, a, down[d]});
    }
  }
  return out;
}

}  // namespace medrelax
