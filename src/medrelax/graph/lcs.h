#ifndef MEDRELAX_GRAPH_LCS_H_
#define MEDRELAX_GRAPH_LCS_H_

#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// Result of a Least Common Subsumer query for a concept pair.
///
/// Per Section 2.3 footnote 1 of the paper: an LCS always exists (the root
/// subsumes everything); when multiple minimal common subsumers exist we
/// keep the one(s) with the shortest combined path to the pair, and when
/// several remain tied the similarity layer averages their IC.
struct LcsResult {
  /// Tied least common subsumers after the shortest-path tie-break.
  /// Non-empty for any pair in a rooted DAG. May include A or B themselves
  /// when one subsumes the other (a concept subsumes itself for LCS
  /// purposes, matching the IC-similarity convention sim(A, A) = 1).
  std::vector<ConceptId> concepts;
  /// Combined hop distance up(A -> lcs) + up(B -> lcs).
  uint32_t combined_distance = 0;
  /// up(A -> lcs): generalization hops from A.
  uint32_t distance_from_a = 0;
  /// up(B -> lcs): generalization hops from B.
  uint32_t distance_from_b = 0;
};

/// Computes the LCS set of (a, b).
///
/// "Common subsumer" here includes the concepts themselves (a subsumer of A
/// in the reflexive closure), so LCS(A, A) = {A} and LCS of an
/// ancestor/descendant pair is the ancestor. Among minimal common subsumers
/// (those not subsuming another common subsumer... i.e. with no descendant
/// that is also a common subsumer), the shortest combined distance wins;
/// ties are all returned.
LcsResult LeastCommonSubsumers(const ConceptDag& dag, ConceptId a,
                               ConceptId b);

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_LCS_H_
