#include "medrelax/graph/flagged_core.h"

#include <algorithm>
#include <cstdint>

namespace medrelax {

namespace {

/// Peeling state of one concept.
enum class Peel : uint8_t { kKept, kQueued, kRemoved };

}  // namespace

FlaggedCore::FlaggedCore(const ConceptDag& dag,
                         const std::vector<bool>& flagged) {
  const size_t n = dag.num_concepts();
  auto is_flagged = [&](ConceptId v) {
    return v < flagged.size() && flagged[v];
  };

  // Leaf stripping: degree[v] counts v's incident edges whose other end
  // is not yet removed; `order` is the peel queue and, once drained, the
  // removal order.
  std::vector<uint32_t> degree(n, 0);
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
  // tree_parent[v]: the neighbor a removed concept hung from when it
  // went, kInvalidConcept when none was left.
  std::vector<ConceptId> tree_parent(n, kInvalidConcept);
  for (size_t head = 0; head < order.size(); ++head) {
    const ConceptId v = order[head];
    state[v] = Peel::kRemoved;
    auto hang = [&](ConceptId u) {
      if (tree_parent[v] != kInvalidConcept || state[u] == Peel::kRemoved) {
        return;
      }
      tree_parent[v] = u;
      if (--degree[u] <= 1 && state[u] == Peel::kKept && !is_flagged(u)) {
        state[u] = Peel::kQueued;
        order.push_back(u);
      }
    };
    for (ConceptId u : dag.parents(v)) hang(u);
    for (ConceptId u : dag.children(v)) hang(u);
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
    if (tree_parent[v] == kInvalidConcept) continue;
    const Attachment up = attachments_[tree_parent[v]];
    if (up.node == kNoNode) continue;
    attachments_[v] = {up.node, up.offset + 1};
  }

  offsets_.reserve(concepts_.size() + 1);
  offsets_.push_back(0);
  for (ConceptId v : concepts_) {
    auto keep = [&](ConceptId u) {
      if (state[u] != Peel::kRemoved) edges_.push_back(attachments_[u].node);
    };
    for (ConceptId u : dag.parents(v)) keep(u);
    for (ConceptId u : dag.children(v)) keep(u);
    offsets_.push_back(static_cast<uint32_t>(edges_.size()));
  }
}

void RadiusExpander::Reset(const FlaggedCore& core, FlaggedCore::Node start) {
  core_ = &core;
  if (seen_.size() < core.num_nodes()) seen_.resize(core.num_nodes(), 0);
  if (++epoch_ == 0) {
    // Wrapped: a stamp from 2^32 resets ago would alias the new epoch.
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  settled_.clear();
  shell_begin_ = 0;
  level_ = 0;
  edges_relaxed_ = 0;
  if (start < core.num_nodes()) {
    seen_[start] = epoch_;
    settled_.push_back(start);
  }
}

void RadiusExpander::ExpandTo(uint32_t radius, std::vector<Neighbor>* out) {
  // Walk the pending shell at hop level_, settling the next one, until the
  // shell at `radius` is settled (and left unwalked) or the ball is whole.
  while (level_ < radius && shell_begin_ < settled_.size()) {
    const size_t shell_end = settled_.size();
    const uint32_t hops = level_ + 1;
    for (size_t i = shell_begin_; i < shell_end; ++i) {
      const std::span<const FlaggedCore::Node> next =
          core_->edges(settled_[i]);
      edges_relaxed_ += next.size();
      for (FlaggedCore::Node v : next) {
        if (seen_[v] == epoch_) continue;
        seen_[v] = epoch_;
        settled_.push_back(v);
        out->push_back({core_->concept_of(v), hops});
      }
    }
    shell_begin_ = shell_end;
    level_ = hops;
  }
}

}  // namespace medrelax
