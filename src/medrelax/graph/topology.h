#ifndef MEDRELAX_GRAPH_TOPOLOGY_H_
#define MEDRELAX_GRAPH_TOPOLOGY_H_

#include <vector>

#include "medrelax/common/result.h"
#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// Kahn topological sort over the subsumption edges, children
/// before parents (descendants precede ancestors), as required by
/// Algorithm 1 line 12 for bottom-up frequency propagation (Equation 2).
/// Fails with FailedPrecondition if the graph contains a cycle.
Result<std::vector<ConceptId>> TopologicalSortChildrenFirst(
    const ConceptDag& dag);

/// Validates that the subsumption relation is acyclic.
[[nodiscard]] Status ValidateAcyclic(const ConceptDag& dag);

/// Validates the well-formedness assumptions of Section 2.2: acyclic and a
/// single root of which every concept is a descendant.
[[nodiscard]] Status ValidateExternalSource(const ConceptDag& dag);

/// Depth of every concept: length of the longest generalization
/// chain from the concept up to a root (roots have depth 0).
Result<std::vector<uint32_t>> DepthsFromRoot(const ConceptDag& dag);

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_TOPOLOGY_H_
