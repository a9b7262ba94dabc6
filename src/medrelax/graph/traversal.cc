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
    const std::vector<DagEdge>& edges =
        upward ? dag.parents(u) : dag.children(u);
    for (const DagEdge& e : edges) {
      if (e.is_shortcut) continue;
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
      if (e.is_shortcut) continue;
      if (e.target == ancestor) return true;
      if (!seen[e.target]) {
        seen[e.target] = true;
        queue.push_back(e.target);
      }
    }
  }
  return false;
}

RadiusExpander::RadiusExpander(const ConceptDag& dag, ConceptId start) {
  Reset(dag, start);
}

void RadiusExpander::Reset(const ConceptDag& dag, ConceptId start) {
  dag_ = &dag;
  if (slots_.size() < dag.num_concepts()) slots_.resize(dag.num_concepts());
  if (++epoch_ == 0) {
    // Wrapped: a stamp from 2^32 resets ago would alias the new epoch.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  for (std::vector<ConceptId>& bucket : buckets_) bucket.clear();
  next_bucket_ = 0;
  shell_pending_ = false;
  edges_relaxed_ = 0;
  if (start < dag.num_concepts()) {
    slots_[start] = {epoch_, 0};
    if (buckets_.empty()) buckets_.resize(1);
    buckets_[0].push_back(start);
  }
}

void RadiusExpander::RelaxBucket(uint32_t d) {
  // Index-based loop: relaxations never push into bucket d (edge weights
  // are >= 1) but do grow `buckets_`.
  for (size_t i = 0; i < buckets_[d].size(); ++i) {
    ConceptId u = buckets_[d][i];
    if (Dist(u) != d) continue;  // stale dial entry
    auto relax = [&](const DagEdge& e) {
      ++edges_relaxed_;
      // A well-formed edge has original_distance >= 1; clamp malformed
      // zero-distance edges so the dial queue always advances.
      uint32_t weight = e.original_distance == 0 ? 1 : e.original_distance;
      uint32_t candidate = d + weight;
      if (candidate < d) return;  // overflow guard
      if (candidate < Dist(e.target)) {
        slots_[e.target] = {epoch_, candidate};
        if (candidate >= buckets_.size()) buckets_.resize(candidate + 1);
        buckets_[candidate].push_back(e.target);
      }
    };
    for (const DagEdge& e : dag_->parents(u)) relax(e);
    for (const DagEdge& e : dag_->children(u)) relax(e);
  }
  buckets_[d].clear();
}

void RadiusExpander::ExpandTo(uint32_t radius, std::vector<Neighbor>* out) {
  if (shell_pending_ && radius >= next_bucket_) {
    RelaxBucket(next_bucket_ - 1);
    shell_pending_ = false;
  }
  while (next_bucket_ < buckets_.size() && next_bucket_ <= radius) {
    const uint32_t d = next_bucket_++;
    if (d > 0 && out != nullptr) {
      for (ConceptId u : buckets_[d]) {
        if (Dist(u) == d) out->push_back({u, d});
      }
    }
    if (d == radius) {
      shell_pending_ = true;  // relaxed only if a larger radius is asked
      return;
    }
    RelaxBucket(d);
  }
  // When the queue drains early, remember the requested radius so a later
  // ExpandTo with a larger one resumes correctly (nothing left to do).
  if (next_bucket_ <= radius) next_bucket_ = radius + 1;
}

std::vector<Neighbor> NeighborsWithinRadius(const ConceptDag& dag,
                                            ConceptId start, uint32_t radius) {
  std::vector<Neighbor> out;
  if (radius == 0) return out;
  RadiusExpander expander(dag, start);
  expander.ExpandTo(radius, &out);
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
