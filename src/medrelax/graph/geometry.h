#ifndef MEDRELAX_GRAPH_GEOMETRY_H_
#define MEDRELAX_GRAPH_GEOMETRY_H_

#include <cstdint>
#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// The weight- and context-independent geometry of a concept pair: enough
/// to evaluate Equations 3-5 for any (w_gen, w_spec, context) without
/// touching the graph again.
struct PairGeometry {
  /// False for disconnected pairs (non-rooted graphs only).
  bool connected = false;
  /// Sum of the Equation 4 exponents (D - i) over generalization hops:
  /// p = w_gen^gen_exponent * w_spec^spec_exponent.
  double gen_exponent = 0.0;
  /// Sum over specialization hops.
  double spec_exponent = 0.0;
  /// Tied least common subsumers (footnote-1 policy applied), ascending id.
  std::vector<ConceptId> lcs;
};

/// Per-query geometry engine: the shared-frontier core of the online hot
/// path (Algorithm 2 line 3).
///
/// `SetSource(Q)` runs ONE upward BFS from the query concept; after that,
/// `Compute(B)` derives the full pair geometry of (Q, B) — shortest
/// taxonomic path split at the best apex, the Equation 4 gen/spec
/// exponents, and the footnote-1 LCS set — from B's ancestor cone alone,
/// in O(|ancestors(B)| * parents). The naive per-pair formulation
/// (ShortestTaxonomicPath + LeastCommonSubsumers) walks the whole graph
/// four times per pair; candidates share the query-side frontier here, so
/// a k-candidate query costs one upward sweep plus k small cones.
///
/// LCS minimality is checked parent-side: a common subsumer is
/// non-minimal iff it is a native parent of another common subsumer, so
/// the cone sweep marks the parents of common subsumers as it goes and
/// never scans a subsumer's children (a hub with 10^4 children costs
/// nothing extra).
///
/// Results are value-identical to the naive formulation (property-tested
/// in tests/graph_reference_test.cc).
///
/// Re-anchorable scratch: every per-concept value is epoch-stamped
/// (stamps reset only when a 32-bit epoch wraps), so neither SetSource,
/// Compute nor Reset allocates or fills a |V|-sized array; the slot array
/// only grows when a larger DAG is seen. NOT thread-safe: QueryRelaxer
/// keeps one engine per thread (thread_local) and Resets it at every
/// top-level call, so an anchor never outlives the call that set it.
class GeometryEngine {
 public:
  /// An unanchored engine; call Reset before SetSource.
  GeometryEngine() = default;
  /// Borrows `dag`, which must outlive the engine (or the next Reset).
  explicit GeometryEngine(const ConceptDag* dag);

  /// Borrows `dag` until the next Reset and drops the anchor, so the next
  /// SetSource always sweeps — whatever DAG or source came before.
  void Reset(const ConceptDag* dag);

  /// Anchors the engine on `source` (one upward BFS over native edges,
  /// O(|ancestors(source)|)). A no-op when `source` is already the anchor
  /// set since the last Reset.
  void SetSource(ConceptId source);

  /// The current anchor, kInvalidConcept before the first SetSource after
  /// a Reset.
  [[nodiscard]] ConceptId source() const { return source_; }

  /// Geometry of (source(), target). Precondition: SetSource was called.
  [[nodiscard]] PairGeometry Compute(ConceptId target);

 private:
  /// Per-concept scratch; each half is valid only while its stamp equals
  /// the matching epoch.
  struct Slot {
    /// Upward distance from the source (source_epoch_).
    uint32_t source_stamp = 0;
    uint32_t source_up = 0;
    /// Upward distance from the current target (target_epoch_).
    uint32_t target_stamp = 0;
    uint32_t target_up = 0;
    /// Native parent of a common subsumer of the current pair, hence not
    /// a least one (target_epoch_).
    uint32_t parent_stamp = 0;
  };

  [[nodiscard]] bool ReachedFromSource(ConceptId id) const {
    return slots_[id].source_stamp == source_epoch_;
  }

  const ConceptDag* dag_ = nullptr;
  ConceptId source_ = kInvalidConcept;
  std::vector<Slot> slots_;
  uint32_t source_epoch_ = 0;
  uint32_t target_epoch_ = 0;
  /// BFS queue of the last sweep: the source's reflexive ancestors after
  /// SetSource, the target's after Compute (in BFS order).
  std::vector<ConceptId> cone_;
};

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_GEOMETRY_H_
