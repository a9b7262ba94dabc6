#include "medrelax/graph/flagged_core.h"

#include <algorithm>
#include <cstdint>

namespace medrelax {

namespace {

/// Peeling state of one concept.
enum class Peel : uint8_t { kKept, kQueued, kRemoved };

/// The edge a removed concept hung from when it went: the neighbor left
/// at that moment (kInvalidConcept when none was) and the edge's weight.
struct TreeEdge {
  ConceptId parent = kInvalidConcept;
  uint32_t weight = 0;
};

}  // namespace

FlaggedCore::FlaggedCore(const ConceptDag& dag,
                         const std::vector<bool>& flagged) {
  const size_t n = dag.num_concepts();
  auto is_flagged = [&](ConceptId v) {
    return v < flagged.size() && flagged[v];
  };

  // Leaf stripping: degree[v] counts v's incident edges whose other end is
  // not yet removed; `order` is the peel queue and, once drained, the
  // removal order.
  std::vector<uint32_t> degree(n);
  std::vector<Peel> state(n, Peel::kKept);
  std::vector<ConceptId> order;
  for (ConceptId v = 0; v < n; ++v) {
    degree[v] =
        static_cast<uint32_t>(dag.parents(v).size() + dag.children(v).size());
    if (degree[v] <= 1 && !is_flagged(v)) {
      state[v] = Peel::kQueued;
      order.push_back(v);
    }
  }
  std::vector<TreeEdge> tree(n);
  for (size_t head = 0; head < order.size(); ++head) {
    const ConceptId v = order[head];
    state[v] = Peel::kRemoved;
    auto hang = [&](const DagEdge& e) {
      if (tree[v].parent != kInvalidConcept ||
          state[e.target] == Peel::kRemoved) {
        return;
      }
      tree[v] = {e.target, HopWeight(e)};
      if (--degree[e.target] <= 1 && state[e.target] == Peel::kKept &&
          !is_flagged(e.target)) {
        state[e.target] = Peel::kQueued;
        order.push_back(e.target);
      }
    };
    for (const DagEdge& e : dag.parents(v)) hang(e);
    for (const DagEdge& e : dag.children(v)) hang(e);
  }

  // Number the kept concepts in id order, then attach the removed trees
  // outward from the core: a tree parent is removed after its children,
  // so reverse removal order sees every parent's attachment first. A
  // concept removed with no edge left roots a tree that reaches no kept,
  // hence no flagged, concept; it and its tree stay unattached.
  attachments_.assign(n, Attachment{});
  for (ConceptId v = 0; v < n; ++v) {
    if (state[v] == Peel::kRemoved) continue;
    attachments_[v] = {static_cast<Node>(concepts_.size()), 0};
    concepts_.push_back(v);
  }
  for (size_t i = order.size(); i-- > 0;) {
    const ConceptId v = order[i];
    if (tree[v].parent == kInvalidConcept) continue;
    const Attachment up = attachments_[tree[v].parent];
    if (up.node == kNoNode) continue;
    const auto offset = static_cast<uint32_t>(
        std::min<uint64_t>(uint64_t{up.offset} + tree[v].weight, UINT32_MAX));
    attachments_[v] = {up.node, offset};
  }

  offsets_.reserve(concepts_.size() + 1);
  offsets_.push_back(0);
  for (ConceptId v : concepts_) {
    auto keep = [&](const DagEdge& e) {
      if (state[e.target] != Peel::kRemoved) {
        edges_.push_back({attachments_[e.target].node, HopWeight(e)});
      }
    };
    for (const DagEdge& e : dag.parents(v)) keep(e);
    for (const DagEdge& e : dag.children(v)) keep(e);
    offsets_.push_back(static_cast<uint32_t>(edges_.size()));
  }
}

void RadiusExpander::Reset(const FlaggedCore& core, FlaggedCore::Node start) {
  core_ = &core;
  if (slots_.size() < core.num_nodes()) slots_.resize(core.num_nodes());
  if (++epoch_ == 0) {
    // Wrapped: a stamp from 2^32 resets ago would alias the new epoch.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  for (std::vector<FlaggedCore::Node>& bucket : buckets_) bucket.clear();
  next_bucket_ = 0;
  shell_pending_ = false;
  edges_relaxed_ = 0;
  if (start < core.num_nodes()) {
    slots_[start] = {epoch_, 0};
    if (buckets_.empty()) buckets_.resize(1);
    buckets_[0].push_back(start);
  }
}

void RadiusExpander::RelaxBucket(uint32_t d) {
  // Index-based loop: relaxations never push into bucket d (edge weights
  // are >= 1) but do grow `buckets_`.
  for (size_t i = 0; i < buckets_[d].size(); ++i) {
    const FlaggedCore::Node u = buckets_[d][i];
    if (Dist(u) != d) continue;  // stale dial entry
    for (const FlaggedCore::Edge& e : core_->edges(u)) {
      ++edges_relaxed_;
      const uint32_t candidate = d + e.weight;
      if (candidate < d) continue;  // overflow guard
      if (candidate < Dist(e.target)) {
        slots_[e.target] = {epoch_, candidate};
        if (candidate >= buckets_.size()) buckets_.resize(candidate + 1);
        buckets_[candidate].push_back(e.target);
      }
    }
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
      for (FlaggedCore::Node u : buckets_[d]) {
        if (Dist(u) == d) out->push_back({core_->concept_of(u), d});
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

}  // namespace medrelax
