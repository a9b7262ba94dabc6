#include "medrelax/graph/merge.h"

#include <unordered_map>
#include <unordered_set>

#include "medrelax/common/string_util.h"
#include "medrelax/graph/topology.h"
#include "medrelax/text/normalize.h"

namespace medrelax {

namespace {

// All normalized surface forms (canonical + synonyms) of a concept of a
// ConceptDag or a ConceptDagBuilder.
template <typename Dag>
std::vector<std::string> Surfaces(const Dag& dag, ConceptId id) {
  std::vector<std::string> out;
  out.push_back(NormalizeTerm(dag.name(id)));
  for (std::string_view syn : dag.synonyms(id)) {
    out.push_back(NormalizeTerm(syn));
  }
  return out;
}

}  // namespace

Result<MergeResult> MergeExternalSources(const ConceptDag& a,
                                         const ConceptDag& b,
                                         const MergeOptions& options) {
  MergeResult result;
  ConceptDagBuilder merged_dag;
  MEDRELAX_ASSIGN_OR_RETURN(result.root,
                            merged_dag.AddConcept(options.merged_root_name));

  // --- Copy source A verbatim. ---
  result.from_a.assign(a.num_concepts(), kInvalidConcept);
  std::unordered_map<std::string, ConceptId> surface_index;
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    MEDRELAX_ASSIGN_OR_RETURN(ConceptId merged,
                              merged_dag.AddConcept(a.name(id)));
    result.from_a[id] = merged;
    for (std::string_view syn : a.synonyms(id)) {
      MEDRELAX_RETURN_NOT_OK(merged_dag.AddSynonym(merged, syn));
    }
    for (const std::string& surface : Surfaces(a, id)) {
      surface_index.emplace(surface, merged);  // first writer wins
    }
  }
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    for (const DagEdge& e : a.parents(id)) {
      if (e.is_shortcut()) continue;
      MEDRELAX_RETURN_NOT_OK(merged_dag.AddSubsumption(
          result.from_a[id], result.from_a[e.target]));
    }
  }

  // --- Copy source B, unifying by surface form when requested. ---
  result.from_b.assign(b.num_concepts(), kInvalidConcept);
  for (ConceptId id = 0; id < b.num_concepts(); ++id) {
    ConceptId merged = kInvalidConcept;
    if (options.unify_by_name) {
      for (const std::string& surface : Surfaces(b, id)) {
        auto it = surface_index.find(surface);
        if (it != surface_index.end()) {
          merged = it->second;
          break;
        }
      }
    }
    if (merged != kInvalidConcept) {
      ++result.unified;
      // Union the synonym lists (skip surfaces the merged node has).
      std::unordered_set<std::string> have;
      for (const std::string& s : Surfaces(merged_dag, merged)) {
        have.insert(s);
      }
      for (std::string_view syn : b.synonyms(id)) {
        if (have.insert(NormalizeTerm(syn)).second) {
          MEDRELAX_RETURN_NOT_OK(merged_dag.AddSynonym(merged, syn));
        }
      }
      std::string canonical = NormalizeTerm(b.name(id));
      if (have.insert(canonical).second) {
        MEDRELAX_RETURN_NOT_OK(merged_dag.AddSynonym(merged, b.name(id)));
      }
    } else {
      // Fresh concept; disambiguate canonical-name collisions.
      Result<ConceptId> made = merged_dag.AddConcept(b.name(id));
      if (!made.ok()) {
        made = merged_dag.AddConcept(
            StrFormat("%s (source b)", b.name(id).c_str()));
      }
      MEDRELAX_RETURN_NOT_OK(made.status());
      merged = *made;
      for (std::string_view syn : b.synonyms(id)) {
        MEDRELAX_RETURN_NOT_OK(merged_dag.AddSynonym(merged, syn));
      }
      for (const std::string& surface : Surfaces(b, id)) {
        surface_index.emplace(surface, merged);
      }
    }
    result.from_b[id] = merged;
  }
  for (ConceptId id = 0; id < b.num_concepts(); ++id) {
    for (const DagEdge& e : b.parents(id)) {
      if (e.is_shortcut()) continue;
      ConceptId child = result.from_b[id];
      ConceptId parent = result.from_b[e.target];
      if (child == parent) continue;  // unification collapsed the edge
      Status st = merged_dag.AddSubsumption(child, parent);
      if (!st.ok() && !st.IsAlreadyExists()) return st;
    }
  }

  // --- Hang both source roots under the fresh root. ---
  for (ConceptId source_root : a.Roots()) {
    MEDRELAX_RETURN_NOT_OK(merged_dag.AddSubsumption(
        result.from_a[source_root], result.root));
  }
  for (ConceptId source_root : b.Roots()) {
    ConceptId merged = result.from_b[source_root];
    if (merged == result.root) continue;
    // A unified root may already hang under the fresh root.
    Status st = merged_dag.AddSubsumption(merged, result.root);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
  }

  // Unification can splice contradictory hierarchies into a cycle.
  result.dag = std::move(merged_dag).Build();
  MEDRELAX_RETURN_NOT_OK(ValidateAcyclic(result.dag));
  return result;
}

}  // namespace medrelax
