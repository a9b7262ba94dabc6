#include "medrelax/graph/topology.h"

#include <algorithm>

#include "medrelax/common/string_util.h"

namespace medrelax {

Result<std::vector<ConceptId>> TopologicalSortChildrenFirst(
    const ConceptDag& dag) {
  const size_t n = dag.num_concepts();
  // In-degree of a node in the child->parent orientation is its number of
  // native children: a concept can be emitted once all its children are.
  std::vector<uint32_t> pending_children(n, 0);
  for (ConceptId id = 0; id < n; ++id) {
    uint32_t native = 0;
    for (const DagEdge& e : dag.children(id)) {
      if (!e.is_shortcut()) ++native;
    }
    pending_children[id] = native;
  }

  std::vector<ConceptId> queue;
  queue.reserve(n);
  for (ConceptId id = 0; id < n; ++id) {
    if (pending_children[id] == 0) queue.push_back(id);
  }

  std::vector<ConceptId> order;
  order.reserve(n);
  for (size_t head = 0; head < queue.size(); ++head) {
    ConceptId id = queue[head];
    order.push_back(id);
    for (const DagEdge& e : dag.parents(id)) {
      if (e.is_shortcut()) continue;
      if (--pending_children[e.target] == 0) queue.push_back(e.target);
    }
  }

  if (order.size() != n) {
    return Status::FailedPrecondition(StrFormat(
        "external knowledge source contains a subsumption cycle "
        "(%zu of %zu concepts sorted)",
        order.size(), n));
  }
  return order;
}

Status ValidateAcyclic(const ConceptDag& dag) {
  return TopologicalSortChildrenFirst(dag).status();
}

Status ValidateExternalSource(const ConceptDag& dag) {
  MEDRELAX_RETURN_NOT_OK(ValidateAcyclic(dag));
  if (dag.num_concepts() == 0) {
    return Status::FailedPrecondition("external knowledge source is empty");
  }
  std::vector<ConceptId> roots = dag.Roots();
  if (roots.size() != 1) {
    return Status::FailedPrecondition(StrFormat(
        "external knowledge source must have exactly one root, found %zu",
        roots.size()));
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> DepthsFromRoot(const ConceptDag& dag) {
  MEDRELAX_ASSIGN_OR_RETURN(std::vector<ConceptId> order,
                            TopologicalSortChildrenFirst(dag));
  // Walk ancestors-last order in reverse so parents are finalized before
  // children.
  std::vector<uint32_t> depth(dag.num_concepts(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    ConceptId id = *it;
    uint32_t d = 0;
    for (const DagEdge& e : dag.parents(id)) {
      if (e.is_shortcut()) continue;
      d = std::max(d, depth[e.target] + 1);
    }
    depth[id] = d;
  }
  return depth;
}

}  // namespace medrelax
