#ifndef MEDRELAX_GRAPH_FLAGGED_CORE_H_
#define MEDRELAX_GRAPH_FLAGGED_CORE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {

/// The part of a DAG a search for flagged concepts (Algorithm 2 line 2)
/// ever needs to walk, built once per (DAG, flag set).
///
/// Peeling: unflagged concepts with at most one remaining incident edge
/// (native and shortcut, both directions, counted with multiplicity) are
/// removed repeatedly until none is left, in O(V + E). A removed concept
/// had at most one edge left when it went, so it lies on no shortest path
/// between two kept concepts: the removed concepts form trees, each
/// hanging off one kept concept, its attachment a(v), at distance δ(v)
/// (the summed `original_distance` of the tree path). Every flagged
/// concept is kept, so for each flagged f
///
///   d(v, f) = δ(v) + d_core(a(v), f),
///
/// and a radius-r search from v is a radius r - δ(v) search from a(v)
/// over the core alone. On taxonomies whose far concepts are filler
/// leaves under wide hubs, the core is a few percent of |V|.
///
/// Immutable after construction; safe to share between threads. The DAG
/// and flags are read only by the constructor.
class FlaggedCore {
 public:
  /// A kept concept's dense index in the core, in [0, num_nodes()).
  using Node = uint32_t;
  static constexpr Node kNoNode = std::numeric_limits<Node>::max();

  /// One core adjacency entry; `weight` is the edge's original distance,
  /// at least 1.
  struct Edge {
    Node target = kNoNode;
    uint32_t weight = 1;
  };

  /// Where a concept meets the core: `node` is a(v) and `offset` is δ(v);
  /// a kept concept is its own attachment at offset 0. `node` is kNoNode
  /// for an out-of-range id and for a concept whose component holds no
  /// flagged concept.
  struct Attachment {
    Node node = kNoNode;
    uint32_t offset = 0;
  };

  /// Peels `dag` against `flagged` (indexed by ConceptId; ids past its end
  /// are unflagged).
  FlaggedCore(const ConceptDag& dag, const std::vector<bool>& flagged);

  /// Number of kept concepts.
  [[nodiscard]] size_t num_nodes() const { return concepts_.size(); }

  /// The concept a core node stands for. Precondition: node < num_nodes().
  [[nodiscard]] ConceptId concept_of(Node node) const {
    return concepts_[node];
  }

  /// The core edges of `node`, in both directions (parents first, in DAG
  /// order). Precondition: node < num_nodes().
  [[nodiscard]] std::span<const Edge> edges(Node node) const {
    return {edges_.data() + offsets_[node], edges_.data() + offsets_[node + 1]};
  }

  /// a(id) and δ(id); unattached for any id the core was not built over.
  [[nodiscard]] Attachment Attach(ConceptId id) const {
    return id < attachments_.size() ? attachments_[id] : Attachment{};
  }

 private:
  /// Per concept.
  std::vector<Attachment> attachments_;
  /// Per core node.
  std::vector<ConceptId> concepts_;
  /// CSR: node u's edges are edges_[offsets_[u], offsets_[u + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Edge> edges_;
};

/// Incremental radius-bounded search over a FlaggedCore (Algorithm 2
/// line 2, including the dynamic-radius growth of Section 5.2): a bounded
/// Dijkstra over the core's edges, weighted by original distance.
///
/// `ExpandTo(r)` settles every core node within distance r of the start
/// and may be called repeatedly with nondecreasing radii; each call
/// resumes from the previous frontier instead of re-running the search
/// from scratch, so `++radius` growth costs only the newly uncovered
/// shell.
///
/// Deferred frontier shell: `ExpandTo(r)` settles and emits the shell at
/// distance exactly r but does not relax that shell's edges; a later call
/// with a larger radius relaxes them first. Every edge weight is >= 1, so
/// the Dial bucket r is final once all nodes below r are relaxed, and the
/// output (content and order) is exactly that of an eager search. A ball
/// that ends at a high-fan-out hub therefore never pays the hub's degree.
///
/// Re-anchorable scratch: the per-node distances are epoch-stamped
/// (stamps reset only when the 32-bit epoch wraps), so `Reset` re-anchors
/// the expander on any core and start without allocating or filling a
/// core-sized array; the array only grows when a larger core is seen. One
/// expander per thread (QueryRelaxer keeps a thread_local one) makes a
/// query cost O(ball in the core), independent of |V|. NOT thread-safe.
class RadiusExpander {
 public:
  /// An unanchored expander; call Reset before ExpandTo.
  RadiusExpander() = default;

  /// Drops all search state and re-anchors on (`core`, `start`). Borrows
  /// `core` until the next Reset. A `start` of FlaggedCore::kNoNode (or
  /// any out-of-range node) settles nothing.
  void Reset(const FlaggedCore& core, FlaggedCore::Node start);

  /// Expands the settled ball to `radius`, appending the concept of every
  /// newly settled node (excluding `start`) to `out` in nondecreasing hop
  /// order. Precondition: `radius` is >= every radius passed since Reset.
  void ExpandTo(uint32_t radius, std::vector<Neighbor>* out);

  /// Edge relaxations performed since Reset (bench/stats
  /// instrumentation). Edges of a deferred shell are not counted until a
  /// larger radius relaxes them.
  [[nodiscard]] size_t edges_relaxed() const { return edges_relaxed_; }

 private:
  /// Tentative distance of one node, valid only in the current epoch.
  struct Slot {
    uint32_t epoch = 0;
    uint32_t dist = 0;
  };

  [[nodiscard]] uint32_t Dist(FlaggedCore::Node node) const {
    return slots_[node].epoch == epoch_ ? slots_[node].dist : kUnreachable;
  }
  /// Relaxes the edges of every node settled in bucket `d`, then empties
  /// that bucket.
  void RelaxBucket(uint32_t d);

  static constexpr uint32_t kUnreachable =
      std::numeric_limits<uint32_t>::max();

  const FlaggedCore* core_ = nullptr;
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
  /// Dial queue: buckets_[d] holds nodes tentatively at distance d.
  /// Entries go stale when a shorter path is found first; stale entries
  /// are skipped on settlement (the distance no longer matches the
  /// bucket).
  std::vector<std::vector<FlaggedCore::Node>> buckets_;
  uint32_t next_bucket_ = 0;
  /// True when bucket next_bucket_ - 1 is the settled but unrelaxed shell
  /// of the last ExpandTo.
  bool shell_pending_ = false;
  size_t edges_relaxed_ = 0;
};

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_FLAGGED_CORE_H_
