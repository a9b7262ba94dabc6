#ifndef MEDRELAX_GRAPH_TRAVERSAL_H_
#define MEDRELAX_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
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

/// Incremental radius-bounded search (Algorithm 2 line 2, including the
/// dynamic-radius growth of Section 5.2): a bounded Dijkstra over
/// taxonomic edges in both directions, weighted by original distance.
///
/// `ExpandTo(r)` settles every concept within original-hop distance r and
/// may be called repeatedly with nondecreasing radii; each call resumes
/// from the previous frontier instead of re-running the search from
/// scratch, so `++radius` growth costs only the newly uncovered shell.
///
/// Deferred frontier shell: `ExpandTo(r)` settles and emits the shell at
/// distance exactly r but does not relax that shell's edges; a later call
/// with a larger radius relaxes them first. Every edge weight is >= 1, so
/// the Dial bucket r is final once all nodes below r are relaxed, and the
/// output (content and order) is exactly that of an eager search. A ball
/// that ends at a high-fan-out hub therefore never pays the hub's degree.
///
/// Re-anchorable scratch: the per-concept distances are epoch-stamped
/// (stamps reset only when the 32-bit epoch wraps), so `Reset` re-anchors
/// the expander on any DAG and start without allocating or filling a
/// |V|-sized array; the array only grows when a larger DAG is seen. One
/// expander per thread (QueryRelaxer keeps a thread_local one) makes a
/// query cost O(ball), independent of |V|. NOT thread-safe.
class RadiusExpander {
 public:
  /// An unanchored expander; call Reset before ExpandTo.
  RadiusExpander() = default;
  /// Borrows `dag`, which must outlive the expander (or the next Reset).
  RadiusExpander(const ConceptDag& dag, ConceptId start);

  /// Drops all search state and re-anchors on (`dag`, `start`). Borrows
  /// `dag` until the next Reset.
  void Reset(const ConceptDag& dag, ConceptId start);

  /// Expands the settled ball to `radius`, appending every newly settled
  /// concept (excluding `start`) to `out` in nondecreasing hop order.
  /// Precondition: `radius` is >= every radius passed since Reset.
  void ExpandTo(uint32_t radius, std::vector<Neighbor>* out);

  /// Edge relaxations performed since Reset (bench/stats
  /// instrumentation). Edges of a deferred shell are not counted until a
  /// larger radius relaxes them.
  [[nodiscard]] size_t edges_relaxed() const { return edges_relaxed_; }

 private:
  /// Tentative distance of one concept, valid only in the current epoch.
  struct Slot {
    uint32_t epoch = 0;
    uint32_t dist = 0;
  };

  [[nodiscard]] uint32_t Dist(ConceptId id) const {
    return slots_[id].epoch == epoch_ ? slots_[id].dist : kUnreachable;
  }
  /// Relaxes the out- and in-edges of every node settled in bucket `d`,
  /// then empties that bucket.
  void RelaxBucket(uint32_t d);

  static constexpr uint32_t kUnreachable =
      std::numeric_limits<uint32_t>::max();

  const ConceptDag* dag_ = nullptr;
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
  /// Dial queue: buckets_[d] holds concepts tentatively at distance d.
  /// Entries go stale when a shorter path is found first; stale entries
  /// are skipped on settlement (the distance no longer matches the
  /// bucket).
  std::vector<std::vector<ConceptId>> buckets_;
  uint32_t next_bucket_ = 0;
  /// True when bucket next_bucket_ - 1 is the settled but unrelaxed shell
  /// of the last ExpandTo.
  bool shell_pending_ = false;
  size_t edges_relaxed_ = 0;
};

/// Concepts within `radius` original hops of `start`, traversing edges in
/// both directions (generalization and specialization), excluding `start`
/// itself. A convenience wrapper over RadiusExpander for one-shot use.
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
