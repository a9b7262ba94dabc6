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
/// The search counts taxonomy hops; every core edge is one hop.
///
/// Peeling: unflagged concepts with at most one remaining incident
/// edge (both directions, counted with multiplicity) are removed
/// repeatedly until none is left, in O(V + E). A removed concept had at
/// most one edge left when it went, so it lies on no shortest path
/// between two kept concepts: the removed concepts form trees, each
/// hanging off one kept concept, its attachment a(v), δ(v) hops away.
/// Every flagged concept is kept, so for each flagged f
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

  /// The core neighbors of `node` over native edges, in both directions
  /// (parents first, in DAG order). Precondition: node < num_nodes().
  [[nodiscard]] std::span<const Node> edges(Node node) const {
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
  std::vector<Node> edges_;
};

/// Incremental radius-bounded search over a FlaggedCore (Algorithm 2
/// line 2, including the dynamic-radius growth of Section 5.2): a
/// breadth-first search over the core's one-hop edges, one hop level at a
/// time.
///
/// `ExpandTo(r)` settles every core node within r hops of the start and
/// may be called repeatedly with nondecreasing radii; each call resumes
/// from the previous frontier instead of re-running the search from
/// scratch, so `++radius` growth costs only the newly uncovered shell.
///
/// Deferred frontier shell: `ExpandTo(r)` settles and emits the shell at
/// hop r but does not walk that shell's edges; a later call with a larger
/// radius walks them first. A ball that ends at a high-fan-out hub
/// therefore never pays the hub's degree.
///
/// Re-anchorable scratch: the per-node seen marks are epoch-stamped
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
  /// order; within one hop level the order is unspecified. Precondition:
  /// `radius` is >= every radius passed since Reset.
  void ExpandTo(uint32_t radius, std::vector<Neighbor>* out);

  /// Edges walked since Reset (bench/stats instrumentation). Edges of a
  /// deferred shell are not counted until a larger radius walks them.
  [[nodiscard]] size_t edges_relaxed() const { return edges_relaxed_; }

 private:
  const FlaggedCore* core_ = nullptr;
  /// seen_[u] == epoch_ iff node u is settled in the current search.
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
  /// Every settled node in settlement order; [shell_begin_, end) is the
  /// shell at hop `level_`, settled and emitted but not yet walked.
  std::vector<FlaggedCore::Node> settled_;
  size_t shell_begin_ = 0;
  uint32_t level_ = 0;
  size_t edges_relaxed_ = 0;
};

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_FLAGGED_CORE_H_
