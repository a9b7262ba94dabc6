#include "medrelax/graph/concept_dag.h"

#include <algorithm>

#include "medrelax/common/string_util.h"

namespace medrelax {

/// The heap arrays behind a built DAG's views.
struct ConceptDag::Storage {
  StringTableBuilder names;
  std::vector<uint64_t> synonym_groups;
  StringTableBuilder synonyms;
  std::vector<uint64_t> parent_offsets;
  std::vector<ConceptId> parent_edges;
  std::vector<uint64_t> child_offsets;
  std::vector<ConceptId> child_edges;
};

ConceptDag ConceptDag::Borrow(const DagViews& views) {
  ConceptDag dag;
  dag.views_ = views;
  return dag;
}

ConceptId ConceptDag::FindByName(std::string_view name) const {
  for (ConceptId id = 0; id < num_concepts(); ++id) {
    if (views_.names[id] == name) return id;
  }
  return kInvalidConcept;
}

std::vector<ConceptId> ConceptDag::Roots() const {
  std::vector<ConceptId> roots;
  for (ConceptId id = 0; id < num_concepts(); ++id) {
    if (parents(id).empty()) roots.push_back(id);
  }
  return roots;
}

ConceptDagBuilder::ConceptDagBuilder(const ConceptDag& dag) {
  const size_t n = dag.num_concepts();
  names_.reserve(n);
  synonyms_.resize(n);
  parents_.resize(n);
  children_.resize(n);
  for (ConceptId id = 0; id < n; ++id) {
    names_.emplace_back(dag.name(id));
    synonyms_[id].assign(dag.synonyms(id).begin(), dag.synonyms(id).end());
    parents_[id].assign(dag.parents(id).begin(), dag.parents(id).end());
    children_[id].assign(dag.children(id).begin(), dag.children(id).end());
  }
}

Result<ConceptId> ConceptDagBuilder::AddConcept(std::string name) {
  // A builder started from a DAG indexes its names on the first
  // AddConcept: a caller that only adds edges never pays for the map.
  if (name_to_id_.size() < names_.size()) {
    name_to_id_.reserve(names_.size() + 1);
    for (ConceptId id = 0; id < names_.size(); ++id) {
      name_to_id_.emplace(names_[id], id);
    }
  }
  auto [it, inserted] =
      name_to_id_.emplace(name, static_cast<ConceptId>(names_.size()));
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("concept '%s' already exists", name.c_str()));
  }
  names_.push_back(std::move(name));
  synonyms_.emplace_back();
  parents_.emplace_back();
  children_.emplace_back();
  return it->second;
}

Status ConceptDagBuilder::AddSynonym(ConceptId id, std::string_view synonym) {
  if (!IsValid(id)) {
    return Status::InvalidArgument("AddSynonym: invalid concept id");
  }
  synonyms_[id].emplace_back(synonym);
  return Status::OK();
}

Status ConceptDagBuilder::AddSubsumption(ConceptId child, ConceptId parent) {
  if (!IsValid(child) || !IsValid(parent)) {
    return Status::InvalidArgument("AddSubsumption: invalid concept id");
  }
  if (child == parent) {
    return Status::InvalidArgument(
        StrFormat("AddSubsumption: self-edge on '%s'", names_[child].c_str()));
  }
  const std::vector<ConceptId>& have = parents_[child];
  if (std::find(have.begin(), have.end(), parent) != have.end()) {
    return Status::AlreadyExists(
        StrFormat("edge '%s' -> '%s' already exists", names_[child].c_str(),
                  names_[parent].c_str()));
  }
  parents_[child].push_back(parent);
  children_[parent].push_back(child);
  return Status::OK();
}

ConceptDag ConceptDagBuilder::Build() && {
  auto storage = std::make_shared<ConceptDag::Storage>();
  const auto flatten = [](const std::vector<std::vector<ConceptId>>& side,
                          std::vector<uint64_t>* offsets,
                          std::vector<ConceptId>* edges) {
    offsets->reserve(side.size() + 1);
    offsets->push_back(0);
    for (const std::vector<ConceptId>& group : side) {
      edges->insert(edges->end(), group.begin(), group.end());
      offsets->push_back(edges->size());
    }
  };
  flatten(parents_, &storage->parent_offsets, &storage->parent_edges);
  flatten(children_, &storage->child_offsets, &storage->child_edges);
  storage->synonym_groups.reserve(names_.size() + 1);
  storage->synonym_groups.push_back(0);
  for (size_t id = 0; id < names_.size(); ++id) {
    storage->names.Add(names_[id]);
    for (const std::string& synonym : synonyms_[id]) {
      storage->synonyms.Add(synonym);
    }
    storage->synonym_groups.push_back(storage->synonyms.offsets.size() - 1);
  }

  ConceptDag dag;
  dag.views_.names = storage->names.view();
  dag.views_.synonym_groups = storage->synonym_groups;
  dag.views_.synonyms = storage->synonyms.view();
  dag.views_.parents = {storage->parent_offsets, storage->parent_edges};
  dag.views_.children = {storage->child_offsets, storage->child_edges};
  dag.storage_ = std::move(storage);
  return dag;
}

}  // namespace medrelax
