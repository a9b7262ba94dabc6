#include "medrelax/graph/geometry.h"

#include <algorithm>
#include <limits>

namespace medrelax {

namespace {
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();
}  // namespace

GeometryEngine::GeometryEngine(const ConceptDag* dag) { Reset(dag); }

void GeometryEngine::Reset(const ConceptDag* dag) {
  dag_ = dag;
  source_ = kInvalidConcept;
  if (slots_.size() < dag->num_concepts()) slots_.resize(dag->num_concepts());
}

void GeometryEngine::SetSource(ConceptId source) {
  if (source == source_) return;
  source_ = source;
  if (++source_epoch_ == 0) {
    // Wrapped: a stamp from 2^32 sweeps ago would alias the new epoch.
    for (Slot& slot : slots_) slot.source_stamp = 0;
    source_epoch_ = 1;
  }
  if (!dag_->IsValid(source)) return;  // nothing reachable
  // Sparse upward BFS over native edges: original-hop distances to the
  // source's reflexive ancestors.
  cone_.clear();
  slots_[source].source_stamp = source_epoch_;
  slots_[source].source_up = 0;
  cone_.push_back(source);
  for (size_t head = 0; head < cone_.size(); ++head) {
    ConceptId u = cone_[head];
    for (const DagEdge& e : dag_->parents(u)) {
      if (e.is_shortcut()) continue;
      Slot& parent = slots_[e.target];
      if (parent.source_stamp != source_epoch_) {
        parent.source_stamp = source_epoch_;
        parent.source_up = slots_[u].source_up + 1;
        cone_.push_back(e.target);
      }
    }
  }
}

PairGeometry GeometryEngine::Compute(ConceptId target) {
  PairGeometry g;
  if (!dag_->IsValid(source_) || !dag_->IsValid(target)) return g;

  // Sparse upward BFS from the target over native edges: the reflexive
  // ancestor cone with original-hop distances. The same sweep does the
  // LCS minimality check parent-side: every native parent of a common
  // subsumer (a cone member the source also reaches) is a common
  // subsumer with a common subsumer below it, hence not least.
  if (++target_epoch_ == 0) {
    for (Slot& slot : slots_) slot.target_stamp = slot.parent_stamp = 0;
    target_epoch_ = 1;
  }
  cone_.clear();
  slots_[target].target_stamp = target_epoch_;
  slots_[target].target_up = 0;
  cone_.push_back(target);
  for (size_t head = 0; head < cone_.size(); ++head) {
    ConceptId u = cone_[head];
    const bool common = ReachedFromSource(u);
    for (const DagEdge& e : dag_->parents(u)) {
      if (e.is_shortcut()) continue;
      Slot& parent = slots_[e.target];
      if (common) parent.parent_stamp = target_epoch_;
      if (parent.target_stamp != target_epoch_) {
        parent.target_stamp = target_epoch_;
        parent.target_up = slots_[u].target_up + 1;
        cone_.push_back(e.target);
      }
    }
  }

  // Best apex: minimal total original-hop length, ties broken towards the
  // fewest generalization hops (matching ShortestTaxonomicPath).
  uint32_t best_total = kUnreachable;
  uint32_t best_up = kUnreachable;
  for (ConceptId c : cone_) {
    if (!ReachedFromSource(c)) continue;
    const Slot& slot = slots_[c];
    uint32_t total = slot.source_up + slot.target_up;
    if (total < best_total ||
        (total == best_total && slot.source_up < best_up)) {
      best_total = total;
      best_up = slot.source_up;
    }
  }
  if (best_total == kUnreachable) return g;  // disconnected forest

  g.connected = true;
  // The path generalizes `up` hops to the apex then specializes `down`
  // hops; Equation 4 assigns hop i (one-based) the exponent D - i, so the
  // per-direction sums collapse to closed forms. All quantities are small
  // integers, so the doubles are exact.
  const double up = static_cast<double>(best_up);
  const double down = static_cast<double>(best_total - best_up);
  const double d = up + down;
  g.gen_exponent = up * d - up * (up + 1.0) / 2.0;
  g.spec_exponent = down * (down - 1.0) / 2.0;

  // LCS (footnote 1): among minimal common subsumers — those the sweep
  // did not mark as the native parent of another common subsumer — keep
  // the shortest combined distance; ties are all returned.
  uint32_t best_combined = kUnreachable;
  for (ConceptId c : cone_) {
    if (!ReachedFromSource(c)) continue;
    const Slot& slot = slots_[c];
    if (slot.parent_stamp == target_epoch_) continue;  // not minimal
    uint32_t combined = slot.source_up + slot.target_up;
    if (combined < best_combined) {
      best_combined = combined;
      g.lcs.clear();
      g.lcs.push_back(c);
    } else if (combined == best_combined) {
      g.lcs.push_back(c);
    }
  }
  std::sort(g.lcs.begin(), g.lcs.end());
  return g;
}

}  // namespace medrelax
