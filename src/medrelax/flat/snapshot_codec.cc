#include "medrelax/flat/snapshot_codec.h"

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "medrelax/common/string_util.h"
#include "medrelax/flat/image_writer.h"

namespace medrelax::flat {

namespace {

/// Accumulates one offsets+blob string-table section pair.
struct StringTableBuilder {
  std::vector<uint64_t> offsets{0};
  std::string blob;

  void Add(std::string_view s) {
    blob.append(s);
    offsets.push_back(blob.size());
  }

  void AddTo(FlatImageWriter* writer, SectionId offsets_id,
             SectionId blob_id) const {
    writer->AddArray<uint64_t>(offsets_id, offsets);
    writer->AddBytes(blob_id, std::as_bytes(std::span<const char>(
                                  blob.data(), blob.size())));
  }
};

/// Decodes one CSR edge side into per-concept adjacency vectors,
/// bounds-checking every target and counting shortcuts for the
/// cross-check against meta.
Status DecodeEdgeCsr(const FlatImageView& image, SectionId offsets_id,
                     SectionId edges_id, size_t num_concepts,
                     uint64_t num_edges,
                     std::vector<std::vector<DagEdge>>* out,
                     uint64_t* shortcut_count) {
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                            image.SectionArray<uint64_t>(offsets_id));
  if (offsets.size() != num_concepts + 1) {
    return Status::InvalidArgument(
        StrFormat("edge CSR %u: %zu offsets, want %zu",
                  static_cast<unsigned>(offsets_id), offsets.size(),
                  num_concepts + 1));
  }
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const FlatEdge> edges,
                            image.SectionArray<FlatEdge>(edges_id));
  if (edges.size() != num_edges || offsets.front() != 0 ||
      offsets.back() != edges.size()) {
    return Status::InvalidArgument(
        StrFormat("edge CSR %u: %zu edges do not match the declared %llu",
                  static_cast<unsigned>(edges_id), edges.size(),
                  static_cast<unsigned long long>(num_edges)));
  }
  out->assign(num_concepts, {});
  uint64_t shortcuts = 0;
  for (size_t id = 0; id < num_concepts; ++id) {
    if (offsets[id] > offsets[id + 1]) {
      return Status::InvalidArgument(
          StrFormat("edge CSR %u: offsets decrease at concept %zu",
                    static_cast<unsigned>(offsets_id), id));
    }
    std::vector<DagEdge>& adjacency = (*out)[id];
    adjacency.reserve(offsets[id + 1] - offsets[id]);
    for (uint64_t j = offsets[id]; j < offsets[id + 1]; ++j) {
      const FlatEdge& e = edges[j];
      if (e.target >= num_concepts) {
        return Status::InvalidArgument(
            StrFormat("edge CSR %u: edge %llu targets concept %u, only %zu"
                      " exist",
                      static_cast<unsigned>(edges_id),
                      static_cast<unsigned long long>(j),
                      static_cast<unsigned>(e.target), num_concepts));
      }
      if ((e.flags & ~kEdgeFlagShortcut) != 0) {
        return Status::InvalidArgument(
            StrFormat("edge CSR %u: unknown edge flags %#x",
                      static_cast<unsigned>(edges_id),
                      static_cast<unsigned>(e.flags)));
      }
      const bool is_shortcut = (e.flags & kEdgeFlagShortcut) != 0;
      adjacency.push_back(DagEdge{e.target, e.original_distance, is_shortcut});
      if (is_shortcut) ++shortcuts;
    }
  }
  *shortcut_count = shortcuts;
  return Status::OK();
}

/// Decodes a CSR of uint32 values per concept, bounds-checking each value
/// against `value_limit`, inserting only non-empty groups (parity with
/// the ingestion builder, which never stores empty vectors).
template <typename ValueT>
Status DecodeConceptCsr(const FlatImageView& image, SectionId offsets_id,
                        SectionId values_id, size_t num_concepts,
                        uint64_t value_limit, const char* what,
                        std::unordered_map<ConceptId, std::vector<ValueT>>* out) {
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                            image.SectionArray<uint64_t>(offsets_id));
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                            image.SectionArray<uint32_t>(values_id));
  if (offsets.size() != num_concepts + 1 || offsets.front() != 0 ||
      offsets.back() != values.size()) {
    return Status::InvalidArgument(
        StrFormat("%s index: offsets do not span the %zu values", what,
                  values.size()));
  }
  for (size_t id = 0; id < num_concepts; ++id) {
    if (offsets[id] > offsets[id + 1]) {
      return Status::InvalidArgument(
          StrFormat("%s index: offsets decrease at concept %zu", what, id));
    }
    const uint64_t begin = offsets[id];
    const uint64_t end = offsets[id + 1];
    if (begin == end) continue;
    std::vector<ValueT> group;
    group.reserve(end - begin);
    for (uint64_t j = begin; j < end; ++j) {
      if (values[j] >= value_limit) {
        return Status::InvalidArgument(
            StrFormat("%s index: value %u at %llu exceeds limit %llu", what,
                      static_cast<unsigned>(values[j]),
                      static_cast<unsigned long long>(j),
                      static_cast<unsigned long long>(value_limit)));
      }
      group.push_back(static_cast<ValueT>(values[j]));
    }
    out->emplace(static_cast<ConceptId>(id), std::move(group));
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshotImage(const ConceptDag& dag, const KnowledgeBase& kb,
                          const IngestionResult& ingestion,
                          const ImageSnapshotConfig& config,
                          uint64_t options_fingerprint,
                          const std::string& path) {
  const size_t n = dag.num_concepts();
  const size_t num_contexts = ingestion.contexts.size();
  if (ingestion.frequencies.num_concepts() != n ||
      ingestion.frequencies.num_contexts() != num_contexts) {
    return Status::InvalidArgument(
        "frequency model does not match the DAG and context registry");
  }
  if (ingestion.flagged.size() != n) {
    return Status::InvalidArgument("flagged vector does not cover the DAG");
  }

  FlatImageWriter writer;

  // DAG adjacency, CSR per side. Edge order inside a concept is the
  // builder's insertion order, preserved so a rehydrated DAG iterates
  // identically (byte-identical golden replays depend on this).
  const auto add_edge_csr = [&writer, &dag, n](
                                SectionId offsets_id, SectionId edges_id,
                                const std::vector<DagEdge>& (ConceptDag::*side)(
                                    ConceptId) const) {
    std::vector<uint64_t> offsets;
    offsets.reserve(n + 1);
    offsets.push_back(0);
    std::vector<FlatEdge> edges;
    edges.reserve(dag.num_edges());
    for (ConceptId id = 0; id < n; ++id) {
      for (const DagEdge& e : (dag.*side)(id)) {
        edges.push_back(FlatEdge{e.target, e.original_distance,
                                 e.is_shortcut ? kEdgeFlagShortcut : 0u});
      }
      offsets.push_back(edges.size());
    }
    writer.AddArray<uint64_t>(offsets_id, offsets);
    writer.AddArray<FlatEdge>(edges_id, edges);
  };
  add_edge_csr(SectionId::kDagParentOffsets, SectionId::kDagParentEdges,
               &ConceptDag::parents);
  add_edge_csr(SectionId::kDagChildOffsets, SectionId::kDagChildEdges,
               &ConceptDag::children);

  StringTableBuilder concept_names;
  for (ConceptId id = 0; id < n; ++id) concept_names.Add(dag.name(id));
  concept_names.AddTo(&writer, SectionId::kConceptNameOffsets,
                      SectionId::kConceptNameBlob);

  std::vector<uint64_t> synonym_groups;
  synonym_groups.reserve(n + 1);
  synonym_groups.push_back(0);
  StringTableBuilder synonym_names;
  uint64_t num_synonyms = 0;
  for (ConceptId id = 0; id < n; ++id) {
    for (const std::string& synonym : dag.synonyms(id)) {
      synonym_names.Add(synonym);
      ++num_synonyms;
    }
    synonym_groups.push_back(num_synonyms);
  }
  writer.AddArray<uint64_t>(SectionId::kSynonymGroupOffsets, synonym_groups);
  synonym_names.AddTo(&writer, SectionId::kSynonymNameOffsets,
                      SectionId::kSynonymNameBlob);

  // The dominant payload: the full normalized frequency table, laid out
  // exactly as FrequencyModel keeps it so the reader can borrow it
  // zero-copy.
  writer.AddArray<double>(SectionId::kFrequencyTable,
                          ingestion.frequencies.NormalizedTable());

  StringTableBuilder context_names;
  for (const Context& context : ingestion.contexts.contexts()) {
    context_names.Add(context.domain);
    context_names.Add(context.relationship);
    context_names.Add(context.range);
  }
  context_names.AddTo(&writer, SectionId::kContextNameOffsets,
                      SectionId::kContextNameBlob);

  std::vector<uint32_t> mapping_pairs;
  mapping_pairs.reserve(2 * ingestion.mappings.size());
  for (const auto& [instance_id, concept_id] : ingestion.mappings) {
    mapping_pairs.push_back(instance_id);
    mapping_pairs.push_back(concept_id);
  }
  writer.AddArray<uint32_t>(SectionId::kMappingPairs, mapping_pairs);

  std::vector<uint64_t> flagged_bits((n + 63) / 64, 0);
  for (ConceptId id = 0; id < n; ++id) {
    if (ingestion.flagged[id]) {
      flagged_bits[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
  writer.AddArray<uint64_t>(SectionId::kFlaggedBits, flagged_bits);

  const auto add_concept_csr = [&writer, n](
                                   SectionId offsets_id, SectionId values_id,
                                   const auto& index) {
    std::vector<uint64_t> offsets;
    offsets.reserve(n + 1);
    offsets.push_back(0);
    std::vector<uint32_t> values;
    for (ConceptId id = 0; id < n; ++id) {
      auto it = index.find(id);
      if (it != index.end()) {
        for (uint32_t value : it->second) values.push_back(value);
      }
      offsets.push_back(values.size());
    }
    writer.AddArray<uint64_t>(offsets_id, offsets);
    writer.AddArray<uint32_t>(values_id, values);
  };
  add_concept_csr(SectionId::kConceptInstanceOffsets,
                  SectionId::kConceptInstanceValues,
                  ingestion.concept_instances);
  add_concept_csr(SectionId::kConceptContextOffsets,
                  SectionId::kConceptContextValues,
                  ingestion.concept_contexts);

  const DomainOntology& ontology = kb.ontology;
  StringTableBuilder ontology_names;
  for (OntologyConceptId id = 0; id < ontology.num_concepts(); ++id) {
    ontology_names.Add(ontology.concept_name(id));
  }
  ontology_names.AddTo(&writer, SectionId::kOntologyNameOffsets,
                       SectionId::kOntologyNameBlob);

  StringTableBuilder relationship_names;
  std::vector<uint32_t> relationship_endpoints;
  relationship_endpoints.reserve(2 * ontology.num_relationships());
  for (const Relationship& rel : ontology.relationships()) {
    relationship_names.Add(rel.name);
    relationship_endpoints.push_back(rel.domain);
    relationship_endpoints.push_back(rel.range);
  }
  relationship_names.AddTo(&writer, SectionId::kRelationshipNameOffsets,
                           SectionId::kRelationshipNameBlob);
  writer.AddArray<uint32_t>(SectionId::kRelationshipEndpoints,
                            relationship_endpoints);

  std::vector<uint32_t> subconcept_pairs;
  for (OntologyConceptId parent = 0; parent < ontology.num_concepts();
       ++parent) {
    for (OntologyConceptId child : ontology.SubConcepts(parent)) {
      subconcept_pairs.push_back(child);
      subconcept_pairs.push_back(parent);
    }
  }
  writer.AddArray<uint32_t>(SectionId::kSubConceptPairs, subconcept_pairs);

  StringTableBuilder instance_names;
  std::vector<uint32_t> instance_concepts;
  instance_concepts.reserve(kb.instances.num_instances());
  for (InstanceId id = 0; id < kb.instances.num_instances(); ++id) {
    const Instance& instance = kb.instances.instance(id);
    instance_names.Add(instance.name);
    instance_concepts.push_back(instance.concept_id);
  }
  instance_names.AddTo(&writer, SectionId::kInstanceNameOffsets,
                       SectionId::kInstanceNameBlob);
  writer.AddArray<uint32_t>(SectionId::kInstanceConcepts, instance_concepts);

  std::vector<uint32_t> triples;
  triples.reserve(3 * kb.triples.num_triples());
  for (const Triple& triple : kb.triples.triples()) {
    triples.push_back(triple.subject);
    triples.push_back(triple.relationship);
    triples.push_back(triple.object);
  }
  writer.AddArray<uint32_t>(SectionId::kTriples, triples);

  FlatMeta meta{};
  meta.num_concepts = n;
  meta.num_edges = dag.num_edges();
  meta.num_shortcut_edges = dag.num_shortcut_edges();
  meta.num_synonyms = num_synonyms;
  meta.num_contexts = num_contexts;
  meta.num_mappings = ingestion.mappings.size();
  meta.num_ontology_concepts = ontology.num_concepts();
  meta.num_relationships = ontology.num_relationships();
  meta.num_subconcept_pairs = subconcept_pairs.size() / 2;
  meta.num_instances = kb.instances.num_instances();
  meta.num_triples = kb.triples.num_triples();
  meta.unmapped_instances = ingestion.unmapped_instances;
  meta.shortcuts_added = ingestion.shortcuts_added;
  meta.options_fingerprint = options_fingerprint;
  meta.relax_top_k = config.relaxation.top_k;
  meta.ic_smoothing = config.ingestion.ic_smoothing;
  meta.generalization_weight = config.similarity.generalization_weight;
  meta.specialization_weight = config.similarity.specialization_weight;
  const std::vector<ConceptId> roots = dag.Roots();
  meta.root_concept = roots.size() == 1 ? roots[0] : kInvalidConcept;
  meta.relax_radius = config.relaxation.radius;
  meta.relax_max_radius = config.relaxation.max_radius;
  meta.max_shortcut_distance = config.ingestion.max_shortcut_distance;
  meta.flags =
      (config.ingestion.use_tfidf ? kMetaFlagUseTfidf : 0u) |
      (config.ingestion.add_shortcut_edges ? kMetaFlagAddShortcutEdges : 0u) |
      (config.similarity.use_path_penalty ? kMetaFlagUsePathPenalty : 0u) |
      (config.similarity.use_context ? kMetaFlagUseContext : 0u) |
      (config.relaxation.dynamic_radius ? kMetaFlagDynamicRadius : 0u) |
      (config.use_exact_mapper ? kMetaFlagExactMapper : 0u);
  writer.AddArray<FlatMeta>(SectionId::kMeta,
                            std::span<const FlatMeta>(&meta, 1));

  return writer.WriteToFile(path);
}

Result<DecodedSnapshotImage> ReadSnapshotImage(const std::string& path) {
  MEDRELAX_ASSIGN_OR_RETURN(std::unique_ptr<FlatImageView> image,
                            FlatImageView::Open(path));
  const FlatMeta meta = image->meta();
  const size_t n = meta.num_concepts;
  const size_t num_contexts = meta.num_contexts;

  // --- External DAG: names, synonyms, both adjacency sides.
  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView name_table,
      image->Strings(SectionId::kConceptNameOffsets,
                     SectionId::kConceptNameBlob, n));
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) names.emplace_back(name_table.at(i));

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint64_t> synonym_groups,
      image->SectionArray<uint64_t>(SectionId::kSynonymGroupOffsets));
  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView synonym_table,
      image->Strings(SectionId::kSynonymNameOffsets,
                     SectionId::kSynonymNameBlob, meta.num_synonyms));
  if (synonym_groups.size() != n + 1 || synonym_groups.front() != 0 ||
      synonym_groups.back() != meta.num_synonyms) {
    return Status::InvalidArgument(
        "synonym group offsets do not span the synonym table");
  }
  std::vector<std::vector<std::string>> synonyms(n);
  for (size_t id = 0; id < n; ++id) {
    if (synonym_groups[id] > synonym_groups[id + 1]) {
      return Status::InvalidArgument(
          StrFormat("synonym group offsets decrease at concept %zu", id));
    }
    synonyms[id].reserve(synonym_groups[id + 1] - synonym_groups[id]);
    for (uint64_t j = synonym_groups[id]; j < synonym_groups[id + 1]; ++j) {
      synonyms[id].emplace_back(synonym_table.at(j));
    }
  }

  std::vector<std::vector<DagEdge>> parents;
  std::vector<std::vector<DagEdge>> children;
  uint64_t parent_shortcuts = 0;
  uint64_t child_shortcuts = 0;
  Status csr_status =
      DecodeEdgeCsr(*image, SectionId::kDagParentOffsets,
                    SectionId::kDagParentEdges, n, meta.num_edges, &parents,
                    &parent_shortcuts);
  if (!csr_status.ok()) return csr_status;
  csr_status =
      DecodeEdgeCsr(*image, SectionId::kDagChildOffsets,
                    SectionId::kDagChildEdges, n, meta.num_edges, &children,
                    &child_shortcuts);
  if (!csr_status.ok()) return csr_status;
  if (parent_shortcuts != meta.num_shortcut_edges ||
      child_shortcuts != meta.num_shortcut_edges) {
    return Status::InvalidArgument(
        StrFormat("shortcut edge count mismatch: meta declares %llu, sides"
                  " hold %llu / %llu",
                  static_cast<unsigned long long>(meta.num_shortcut_edges),
                  static_cast<unsigned long long>(parent_shortcuts),
                  static_cast<unsigned long long>(child_shortcuts)));
  }

  // --- KB rebuild: ids are insertion-order dense on both sides, so
  // re-adding in serialized order reproduces every id exactly.
  KnowledgeBase kb;
  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView ontology_names,
      image->Strings(SectionId::kOntologyNameOffsets,
                     SectionId::kOntologyNameBlob,
                     meta.num_ontology_concepts));
  for (size_t i = 0; i < meta.num_ontology_concepts; ++i) {
    MEDRELAX_ASSIGN_OR_RETURN(
        OntologyConceptId id,
        kb.ontology.AddConcept(std::string(ontology_names.at(i))));
    if (id != i) {
      return Status::Internal("ontology concept ids did not round-trip");
    }
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView relationship_names,
      image->Strings(SectionId::kRelationshipNameOffsets,
                     SectionId::kRelationshipNameBlob,
                     meta.num_relationships));
  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint32_t> endpoints,
      image->SectionArray<uint32_t>(SectionId::kRelationshipEndpoints));
  if (endpoints.size() != 2 * meta.num_relationships) {
    return Status::InvalidArgument(
        StrFormat("relationship endpoints: %zu values, want %llu",
                  endpoints.size(),
                  static_cast<unsigned long long>(2 * meta.num_relationships)));
  }
  for (size_t i = 0; i < meta.num_relationships; ++i) {
    const uint32_t domain = endpoints[2 * i];
    const uint32_t range = endpoints[2 * i + 1];
    if (domain >= meta.num_ontology_concepts ||
        range >= meta.num_ontology_concepts) {
      return Status::InvalidArgument(
          StrFormat("relationship %zu endpoints out of range", i));
    }
    MEDRELAX_ASSIGN_OR_RETURN(
        RelationshipId id,
        kb.ontology.AddRelationship(std::string(relationship_names.at(i)),
                                    domain, range));
    if (id != i) {
      return Status::Internal("relationship ids did not round-trip");
    }
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint32_t> subconcept_pairs,
      image->SectionArray<uint32_t>(SectionId::kSubConceptPairs));
  if (subconcept_pairs.size() != 2 * meta.num_subconcept_pairs) {
    return Status::InvalidArgument(
        StrFormat("subconcept pairs: %zu values, want %llu",
                  subconcept_pairs.size(),
                  static_cast<unsigned long long>(
                      2 * meta.num_subconcept_pairs)));
  }
  for (size_t i = 0; i < meta.num_subconcept_pairs; ++i) {
    const uint32_t child = subconcept_pairs[2 * i];
    const uint32_t parent = subconcept_pairs[2 * i + 1];
    if (child >= meta.num_ontology_concepts ||
        parent >= meta.num_ontology_concepts) {
      return Status::InvalidArgument(
          StrFormat("subconcept pair %zu out of range", i));
    }
    Status sub_status = kb.ontology.AddSubConcept(child, parent);
    if (!sub_status.ok()) return sub_status;
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView instance_names,
      image->Strings(SectionId::kInstanceNameOffsets,
                     SectionId::kInstanceNameBlob, meta.num_instances));
  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint32_t> instance_concepts,
      image->SectionArray<uint32_t>(SectionId::kInstanceConcepts));
  if (instance_concepts.size() != meta.num_instances) {
    return Status::InvalidArgument(
        StrFormat("instance concepts: %zu values, want %llu",
                  instance_concepts.size(),
                  static_cast<unsigned long long>(meta.num_instances)));
  }
  for (size_t i = 0; i < meta.num_instances; ++i) {
    if (instance_concepts[i] >= meta.num_ontology_concepts) {
      return Status::InvalidArgument(
          StrFormat("instance %zu typed with unknown ontology concept %u", i,
                    static_cast<unsigned>(instance_concepts[i])));
    }
    MEDRELAX_ASSIGN_OR_RETURN(
        InstanceId id,
        kb.instances.AddInstance(std::string(instance_names.at(i)),
                                 instance_concepts[i]));
    if (id != i) {
      return Status::Internal("instance ids did not round-trip");
    }
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint32_t> triples,
      image->SectionArray<uint32_t>(SectionId::kTriples));
  if (triples.size() != 3 * meta.num_triples) {
    return Status::InvalidArgument(
        StrFormat("triples: %zu values, want %llu", triples.size(),
                  static_cast<unsigned long long>(3 * meta.num_triples)));
  }
  for (size_t i = 0; i < meta.num_triples; ++i) {
    const uint32_t subject = triples[3 * i];
    const uint32_t relationship = triples[3 * i + 1];
    const uint32_t object = triples[3 * i + 2];
    if (subject >= meta.num_instances || object >= meta.num_instances ||
        relationship >= meta.num_relationships) {
      return Status::InvalidArgument(
          StrFormat("triple %zu references unknown ids", i));
    }
    Status triple_status =
        kb.triples.AddTriple(subject, relationship, object);
    if (!triple_status.ok()) return triple_status;
  }

  // --- Ingestion artifacts.
  IngestionResult ingestion;
  MEDRELAX_ASSIGN_OR_RETURN(
      FlatImageView::StringTableView context_names,
      image->Strings(SectionId::kContextNameOffsets,
                     SectionId::kContextNameBlob, 3 * num_contexts));
  for (size_t i = 0; i < num_contexts; ++i) {
    Context context{std::string(context_names.at(3 * i)),
                    std::string(context_names.at(3 * i + 1)),
                    std::string(context_names.at(3 * i + 2))};
    const ContextId id = ingestion.contexts.Intern(context);
    if (id != i) {
      return Status::InvalidArgument(
          StrFormat("context %zu '%s' collides with an earlier context", i,
                    context.Label().c_str()));
    }
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const double> frequency_table,
      image->SectionArray<double>(SectionId::kFrequencyTable));
  // Divide instead of multiplying: (num_contexts + 1) * n can wrap for
  // corrupt meta counts (Open bounds each against the file size, but a
  // product of two large-yet-plausible counts can still overflow), and
  // a wrapped product that happens to equal the real table size would
  // hand FromNormalizedTable dimensions the table does not have.
  const size_t rows = num_contexts + 1;
  if (frequency_table.size() % rows != 0 ||
      frequency_table.size() / rows != n) {
    return Status::InvalidArgument(
        StrFormat("frequency table: %zu values do not factor as"
                  " (%zu contexts + 1) x %zu concepts",
                  frequency_table.size(), num_contexts, n));
  }
  ingestion.frequencies = FrequencyModel::FromNormalizedTable(
      n, num_contexts, meta.ic_smoothing, frequency_table);

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint32_t> mapping_pairs,
      image->SectionArray<uint32_t>(SectionId::kMappingPairs));
  if (mapping_pairs.size() != 2 * meta.num_mappings) {
    return Status::InvalidArgument(
        StrFormat("mapping pairs: %zu values, want %llu",
                  mapping_pairs.size(),
                  static_cast<unsigned long long>(2 * meta.num_mappings)));
  }
  ingestion.mappings.reserve(meta.num_mappings);
  for (size_t i = 0; i < meta.num_mappings; ++i) {
    const uint32_t instance_id = mapping_pairs[2 * i];
    const uint32_t concept_id = mapping_pairs[2 * i + 1];
    if (instance_id >= meta.num_instances || concept_id >= n) {
      return Status::InvalidArgument(
          StrFormat("mapping %zu references unknown ids", i));
    }
    ingestion.mappings.emplace_back(instance_id, concept_id);
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      std::span<const uint64_t> flagged_bits,
      image->SectionArray<uint64_t>(SectionId::kFlaggedBits));
  if (flagged_bits.size() != (n + 63) / 64) {
    return Status::InvalidArgument(
        StrFormat("flagged bitset: %zu words, want %zu", flagged_bits.size(),
                  (n + 63) / 64));
  }
  ingestion.flagged.assign(n, false);
  for (size_t id = 0; id < n; ++id) {
    ingestion.flagged[id] =
        (flagged_bits[id / 64] >> (id % 64) & uint64_t{1}) != 0;
  }

  Status index_status = DecodeConceptCsr<InstanceId>(
      *image, SectionId::kConceptInstanceOffsets,
      SectionId::kConceptInstanceValues, n, meta.num_instances,
      "concept-instance", &ingestion.concept_instances);
  if (!index_status.ok()) return index_status;
  index_status = DecodeConceptCsr<ContextId>(
      *image, SectionId::kConceptContextOffsets,
      SectionId::kConceptContextValues, n, num_contexts, "concept-context",
      &ingestion.concept_contexts);
  if (!index_status.ok()) return index_status;

  ingestion.unmapped_instances = meta.unmapped_instances;
  ingestion.shortcuts_added = meta.shortcuts_added;

  // --- Options round-trip.
  ImageSnapshotConfig config;
  config.ingestion.use_tfidf = (meta.flags & kMetaFlagUseTfidf) != 0;
  config.ingestion.add_shortcut_edges =
      (meta.flags & kMetaFlagAddShortcutEdges) != 0;
  config.ingestion.max_shortcut_distance = meta.max_shortcut_distance;
  config.ingestion.ic_smoothing = meta.ic_smoothing;
  config.similarity.generalization_weight = meta.generalization_weight;
  config.similarity.specialization_weight = meta.specialization_weight;
  config.similarity.use_path_penalty =
      (meta.flags & kMetaFlagUsePathPenalty) != 0;
  config.similarity.use_context = (meta.flags & kMetaFlagUseContext) != 0;
  config.relaxation.radius = meta.relax_radius;
  config.relaxation.dynamic_radius =
      (meta.flags & kMetaFlagDynamicRadius) != 0;
  config.relaxation.max_radius = meta.relax_max_radius;
  config.relaxation.top_k = meta.relax_top_k;
  config.use_exact_mapper = (meta.flags & kMetaFlagExactMapper) != 0;

  DecodedSnapshotImage decoded;
  decoded.image = std::move(image);
  decoded.dag = ConceptDag::Restore(std::move(names), std::move(synonyms),
                                    std::move(parents), std::move(children),
                                    meta.num_edges, meta.num_shortcut_edges);
  decoded.kb = std::move(kb);
  decoded.ingestion = std::move(ingestion);
  decoded.config = config;
  decoded.options_fingerprint = meta.options_fingerprint;
  return decoded;
}

}  // namespace medrelax::flat
