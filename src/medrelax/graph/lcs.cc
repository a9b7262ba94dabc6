#include "medrelax/graph/lcs.h"

#include <limits>

#include "medrelax/graph/traversal.h"

namespace medrelax {

namespace {
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();
}  // namespace

LcsResult LeastCommonSubsumers(const ConceptDag& dag, ConceptId a,
                               ConceptId b) {
  LcsResult result;
  std::vector<uint32_t> up_a = UpDistances(dag, a);
  std::vector<uint32_t> up_b = UpDistances(dag, b);

  // The common-subsumer set (reflexive ancestors of both) is upward-closed:
  // any ancestor of a common subsumer is itself one. Hence C is *minimal*
  // iff no native child of C is also a common subsumer.
  auto is_common = [&](ConceptId c) {
    return up_a[c] != kUnreachable && up_b[c] != kUnreachable;
  };

  uint32_t best_combined = kUnreachable;
  for (ConceptId c = 0; c < dag.num_concepts(); ++c) {
    if (!is_common(c)) continue;
    bool minimal = true;
    for (const DagEdge& e : dag.children(c)) {
      if (e.is_shortcut()) continue;
      if (is_common(e.target)) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;
    uint32_t combined = up_a[c] + up_b[c];
    if (combined < best_combined) {
      best_combined = combined;
      result.concepts.clear();
      result.concepts.push_back(c);
      result.combined_distance = combined;
      result.distance_from_a = up_a[c];
      result.distance_from_b = up_b[c];
    } else if (combined == best_combined) {
      result.concepts.push_back(c);
    }
  }
  return result;
}

}  // namespace medrelax
