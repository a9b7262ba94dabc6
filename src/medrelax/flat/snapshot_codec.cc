#include "medrelax/flat/snapshot_codec.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "medrelax/common/string_util.h"
#include "medrelax/flat/image_writer.h"

namespace medrelax::flat {

namespace {

void AddStrings(FlatImageWriter* writer, const StringTableView& table,
                SectionId offsets_id, SectionId blob_id) {
  writer->AddArray<uint64_t>(offsets_id, table.offsets());
  writer->AddBytes(blob_id, std::as_bytes(table.blob()));
}

/// Checks a CSR offsets array: `groups` + 1 values, starting at 0,
/// non-decreasing, ending at `total`.
template <typename OffsetT>
Status CheckOffsets(std::span<const OffsetT> offsets, uint64_t groups,
                    uint64_t total, const char* what) {
  if (offsets.empty() || offsets.size() - 1 != groups ||
      offsets.front() != 0 || offsets.back() != total) {
    return Status::InvalidArgument(
        StrFormat("%s: %zu offsets do not span %llu groups over %llu values",
                  what, offsets.size(), static_cast<unsigned long long>(groups),
                  static_cast<unsigned long long>(total)));
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument(
          StrFormat("%s: offsets decrease at %zu", what, i));
    }
  }
  return Status::OK();
}

/// Checks that every value is below `limit`, or is kEmptySlot when
/// `free_slots` (a slot table).
Status CheckBelow(std::span<const uint32_t> values, uint64_t limit,
                  bool free_slots, const char* what) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= limit && !(free_slots && values[i] == kEmptySlot)) {
      return Status::InvalidArgument(
          StrFormat("%s: value %u at %zu exceeds limit %llu", what,
                    static_cast<unsigned>(values[i]), i,
                    static_cast<unsigned long long>(limit)));
    }
  }
  return Status::OK();
}

/// A probe over a linear-probing table ends only at a free slot, so the
/// table must be a power of two in size and hold at least one.
Status CheckSlotTable(size_t num_slots, size_t num_free, const char* what) {
  if (num_slots == 0 || (num_slots & (num_slots - 1)) != 0 || num_free == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: %zu slots with %zu free; want a power of two with a"
                  " free slot",
                  what, num_slots, num_free));
  }
  return Status::OK();
}

/// Reads one CSR edge side, checking its offsets, every target and flag
/// word, and counting shortcuts for the cross-check against meta.
Result<DagCsr> ReadEdgeCsr(const FlatImageView& image, SectionId offsets_id,
                           SectionId edges_id, size_t num_concepts,
                           uint64_t num_edges, uint64_t* shortcut_count) {
  DagCsr csr;
  MEDRELAX_ASSIGN_OR_RETURN(csr.offsets,
                            image.SectionArray<uint64_t>(offsets_id));
  MEDRELAX_ASSIGN_OR_RETURN(csr.edges, image.SectionArray<DagEdge>(edges_id));
  if (csr.edges.size() != num_edges) {
    return Status::InvalidArgument(
        StrFormat("edge CSR %u: %zu edges do not match the declared %llu",
                  static_cast<unsigned>(edges_id), csr.edges.size(),
                  static_cast<unsigned long long>(num_edges)));
  }
  MEDRELAX_RETURN_NOT_OK(CheckOffsets(csr.offsets, num_concepts,
                                      csr.edges.size(), "edge CSR offsets"));
  uint64_t shortcuts = 0;
  for (size_t j = 0; j < csr.edges.size(); ++j) {
    const DagEdge& e = csr.edges[j];
    if (e.target >= num_concepts) {
      return Status::InvalidArgument(
          StrFormat("edge CSR %u: edge %zu targets concept %u, only %zu"
                    " exist",
                    static_cast<unsigned>(edges_id), j,
                    static_cast<unsigned>(e.target), num_concepts));
    }
    if ((e.flags & ~kEdgeFlagShortcut) != 0) {
      return Status::InvalidArgument(
          StrFormat("edge CSR %u: unknown edge flags %#x",
                    static_cast<unsigned>(edges_id),
                    static_cast<unsigned>(e.flags)));
    }
    if (e.is_shortcut()) ++shortcuts;
  }
  *shortcut_count = shortcuts;
  return csr;
}

/// Regroups `from` by edge target: group t of the result holds, in
/// ascending source order, one edge back to each source s with an edge
/// s -> t, with that edge's distance and flags. `into_offsets` sizes the
/// groups; false when a group would overflow its size.
bool Transpose(const DagCsr& from, std::span<const uint64_t> into_offsets,
               std::vector<DagEdge>* out) {
  out->resize(from.edges.size());
  std::vector<uint64_t> cursor(into_offsets.begin(), into_offsets.end() - 1);
  for (size_t s = 0; s + 1 < from.offsets.size(); ++s) {
    for (uint64_t j = from.offsets[s]; j < from.offsets[s + 1]; ++j) {
      const DagEdge& e = from.edges[j];
      uint64_t& at = cursor[e.target];
      if (at == into_offsets[e.target + 1]) return false;
      (*out)[at++] = {static_cast<ConceptId>(s), e.original_distance,
                      e.flags};
    }
  }
  return true;
}

/// True iff the child side is the parent side reversed: every parent edge
/// c -> p appears as a child edge p -> c with the same distance and
/// flags. Both sides were bounds-checked and hold the same edge count.
/// Transposing the parent side orders each child group by source;
/// transposing the child side twice puts it in the same order, so the
/// two agree element for element iff the sides mirror — three linear
/// passes over two scratch arrays, no hashing, no sort.
bool SidesMirror(const DagCsr& parents, const DagCsr& children) {
  std::vector<DagEdge> scratch;
  std::vector<DagEdge> canonical_children;
  if (!Transpose(children, parents.offsets, &scratch) ||
      !Transpose({parents.offsets, scratch}, children.offsets,
                 &canonical_children) ||
      !Transpose(parents, children.offsets, &scratch)) {
    return false;
  }
  for (size_t j = 0; j < scratch.size(); ++j) {
    const DagEdge& a = scratch[j];
    const DagEdge& b = canonical_children[j];
    if (a.target != b.target || a.original_distance != b.original_distance ||
        a.flags != b.flags) {
      return false;
    }
  }
  return true;
}

/// Reads and checks the name index sections; the fuzzy ones only when
/// `fuzzy` (edit-distance images).
Result<NameIndexViews> ReadNameIndex(const FlatImageView& image,
                                     size_t num_concepts, bool fuzzy) {
  NameIndexViews views;
  MEDRELAX_ASSIGN_OR_RETURN(
      views.records,
      image.SectionArray<NameEntryRecord>(SectionId::kNameEntryRecords));
  const size_t num_entries = views.records.size();
  MEDRELAX_ASSIGN_OR_RETURN(
      views.surfaces, image.Strings(SectionId::kNameSurfaceOffsets,
                                    SectionId::kNameSurfaceBlob, num_entries));
  for (size_t e = 0; e < num_entries; ++e) {
    const NameEntryRecord& record = views.records[e];
    if (record.concept_id >= num_concepts ||
        (record.flags & ~kNameEntryCanonical) != 0) {
      return Status::InvalidArgument(
          StrFormat("name entry %zu: concept %u / flags %#x out of range", e,
                    static_cast<unsigned>(record.concept_id),
                    static_cast<unsigned>(record.flags)));
    }
  }
  MEDRELAX_ASSIGN_OR_RETURN(
      views.exact_slots,
      image.SectionArray<uint32_t>(SectionId::kNameExactSlots));
  MEDRELAX_RETURN_NOT_OK(CheckBelow(views.exact_slots, num_entries,
                                    /*free_slots=*/true, "exact slot table"));
  MEDRELAX_RETURN_NOT_OK(CheckSlotTable(
      views.exact_slots.size(),
      static_cast<size_t>(std::count(views.exact_slots.begin(),
                                     views.exact_slots.end(), kEmptySlot)),
      "exact slot table"));
  if (!fuzzy) return views;

  MEDRELAX_ASSIGN_OR_RETURN(
      views.trigram_slots,
      image.SectionArray<TrigramSlot>(SectionId::kTrigramSlots));
  MEDRELAX_ASSIGN_OR_RETURN(
      views.trigram_offsets,
      image.SectionArray<uint32_t>(SectionId::kTrigramOffsets));
  MEDRELAX_ASSIGN_OR_RETURN(
      views.trigram_postings,
      image.SectionArray<uint32_t>(SectionId::kTrigramPostings));
  if (views.trigram_offsets.empty()) {
    return Status::InvalidArgument("trigram offsets: empty section");
  }
  const size_t num_keys = views.trigram_offsets.size() - 1;
  size_t free_slots = 0;
  for (const TrigramSlot& slot : views.trigram_slots) {
    if (slot.id == kEmptySlot) {
      ++free_slots;
    } else if (slot.id >= num_keys) {
      return Status::InvalidArgument(
          StrFormat("trigram slot names key %u, only %zu exist",
                    static_cast<unsigned>(slot.id), num_keys));
    }
  }
  MEDRELAX_RETURN_NOT_OK(CheckSlotTable(views.trigram_slots.size(),
                                        free_slots, "trigram slot table"));
  MEDRELAX_RETURN_NOT_OK(CheckOffsets(views.trigram_offsets, num_keys,
                                      views.trigram_postings.size(),
                                      "trigram offsets"));
  MEDRELAX_RETURN_NOT_OK(CheckBelow(views.trigram_postings, num_entries,
                                    /*free_slots=*/false, "trigram postings"));

  MEDRELAX_ASSIGN_OR_RETURN(
      views.length_offsets,
      image.SectionArray<uint32_t>(SectionId::kNameLengthOffsets));
  MEDRELAX_ASSIGN_OR_RETURN(
      views.by_length, image.SectionArray<uint32_t>(SectionId::kNameByLength));
  if (views.length_offsets.size() < 2) {
    return Status::InvalidArgument("length buckets: fewer than 2 offsets");
  }
  MEDRELAX_RETURN_NOT_OK(CheckOffsets(views.length_offsets,
                                      views.length_offsets.size() - 1,
                                      views.by_length.size(),
                                      "length bucket offsets"));
  MEDRELAX_RETURN_NOT_OK(CheckBelow(views.by_length, num_entries,
                                    /*free_slots=*/false, "length buckets"));
  return views;
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

Status WriteSnapshotImage(const ConceptDag& dag, const NameIndex& index,
                          const KnowledgeBase& kb,
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
  if (&index.dag() != &dag ||
      (!config.use_exact_mapper && !index.views().has_fuzzy_tables())) {
    return Status::InvalidArgument(
        "name index does not cover the DAG and mapper");
  }

  FlatImageWriter writer;

  // The DAG's own CSR arrays and string tables, as they are. Edge order
  // inside a concept is the builder's insertion order, preserved so a
  // served DAG iterates identically (byte-identical golden replays
  // depend on this).
  const DagViews& views = dag.views();
  writer.AddArray<uint64_t>(SectionId::kDagParentOffsets,
                            views.parents.offsets);
  writer.AddArray<DagEdge>(SectionId::kDagParentEdges, views.parents.edges);
  writer.AddArray<uint64_t>(SectionId::kDagChildOffsets,
                            views.children.offsets);
  writer.AddArray<DagEdge>(SectionId::kDagChildEdges, views.children.edges);
  AddStrings(&writer, views.names, SectionId::kConceptNameOffsets,
             SectionId::kConceptNameBlob);
  writer.AddArray<uint64_t>(SectionId::kSynonymGroupOffsets,
                            views.synonym_groups);
  AddStrings(&writer, views.synonyms, SectionId::kSynonymNameOffsets,
             SectionId::kSynonymNameBlob);

  const NameIndexViews& names = index.views();
  AddStrings(&writer, names.surfaces, SectionId::kNameSurfaceOffsets,
             SectionId::kNameSurfaceBlob);
  writer.AddArray<NameEntryRecord>(SectionId::kNameEntryRecords,
                                   names.records);
  writer.AddArray<uint32_t>(SectionId::kNameExactSlots, names.exact_slots);
  if (!config.use_exact_mapper) {
    writer.AddArray<TrigramSlot>(SectionId::kTrigramSlots,
                                 names.trigram_slots);
    writer.AddArray<uint32_t>(SectionId::kTrigramOffsets,
                              names.trigram_offsets);
    writer.AddArray<uint32_t>(SectionId::kTrigramPostings,
                              names.trigram_postings);
    writer.AddArray<uint32_t>(SectionId::kNameLengthOffsets,
                              names.length_offsets);
    writer.AddArray<uint32_t>(SectionId::kNameByLength, names.by_length);
  }

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
  AddStrings(&writer, context_names.view(), SectionId::kContextNameOffsets,
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
                                   const auto& by_concept) {
    std::vector<uint64_t> offsets;
    offsets.reserve(n + 1);
    offsets.push_back(0);
    std::vector<uint32_t> values;
    for (ConceptId id = 0; id < n; ++id) {
      auto it = by_concept.find(id);
      if (it != by_concept.end()) {
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
  AddStrings(&writer, ontology_names.view(), SectionId::kOntologyNameOffsets,
             SectionId::kOntologyNameBlob);

  StringTableBuilder relationship_names;
  std::vector<uint32_t> relationship_endpoints;
  relationship_endpoints.reserve(2 * ontology.num_relationships());
  for (const Relationship& rel : ontology.relationships()) {
    relationship_names.Add(rel.name);
    relationship_endpoints.push_back(rel.domain);
    relationship_endpoints.push_back(rel.range);
  }
  AddStrings(&writer, relationship_names.view(), SectionId::kRelationshipNameOffsets,
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
  AddStrings(&writer, instance_names.view(), SectionId::kInstanceNameOffsets,
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
  meta.num_synonyms = views.synonyms.size();
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

  // --- External DAG, borrowed: names, synonyms, both adjacency sides.
  DagViews dag_views;
  MEDRELAX_ASSIGN_OR_RETURN(
      dag_views.names, image->Strings(SectionId::kConceptNameOffsets,
                                      SectionId::kConceptNameBlob, n));
  MEDRELAX_ASSIGN_OR_RETURN(
      dag_views.synonym_groups,
      image->SectionArray<uint64_t>(SectionId::kSynonymGroupOffsets));
  MEDRELAX_ASSIGN_OR_RETURN(
      dag_views.synonyms,
      image->Strings(SectionId::kSynonymNameOffsets,
                     SectionId::kSynonymNameBlob, meta.num_synonyms));
  MEDRELAX_RETURN_NOT_OK(CheckOffsets(dag_views.synonym_groups, n,
                                      meta.num_synonyms,
                                      "synonym group offsets"));
  uint64_t parent_shortcuts = 0;
  uint64_t child_shortcuts = 0;
  MEDRELAX_ASSIGN_OR_RETURN(
      dag_views.parents,
      ReadEdgeCsr(*image, SectionId::kDagParentOffsets,
                  SectionId::kDagParentEdges, n, meta.num_edges,
                  &parent_shortcuts));
  MEDRELAX_ASSIGN_OR_RETURN(
      dag_views.children,
      ReadEdgeCsr(*image, SectionId::kDagChildOffsets,
                  SectionId::kDagChildEdges, n, meta.num_edges,
                  &child_shortcuts));
  if (parent_shortcuts != meta.num_shortcut_edges ||
      child_shortcuts != meta.num_shortcut_edges) {
    return Status::InvalidArgument(
        StrFormat("shortcut edge count mismatch: meta declares %llu, sides"
                  " hold %llu / %llu",
                  static_cast<unsigned long long>(meta.num_shortcut_edges),
                  static_cast<unsigned long long>(parent_shortcuts),
                  static_cast<unsigned long long>(child_shortcuts)));
  }
  if (!SidesMirror(dag_views.parents, dag_views.children)) {
    return Status::InvalidArgument(
        "edge CSR: the child side does not mirror the parent side");
  }
  dag_views.num_shortcut_edges = meta.num_shortcut_edges;

  MEDRELAX_ASSIGN_OR_RETURN(
      NameIndexViews index_views,
      ReadNameIndex(*image, n, (meta.flags & kMetaFlagExactMapper) == 0));

  // --- KB rebuild: ids are insertion-order dense on both sides, so
  // re-adding in serialized order reproduces every id exactly.
  KnowledgeBase kb;
  MEDRELAX_ASSIGN_OR_RETURN(
      StringTableView ontology_names,
      image->Strings(SectionId::kOntologyNameOffsets,
                     SectionId::kOntologyNameBlob,
                     meta.num_ontology_concepts));
  for (size_t i = 0; i < meta.num_ontology_concepts; ++i) {
    MEDRELAX_ASSIGN_OR_RETURN(
        OntologyConceptId id,
        kb.ontology.AddConcept(std::string(ontology_names[i])));
    if (id != i) {
      return Status::Internal("ontology concept ids did not round-trip");
    }
  }

  MEDRELAX_ASSIGN_OR_RETURN(
      StringTableView relationship_names,
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
        kb.ontology.AddRelationship(std::string(relationship_names[i]),
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
      StringTableView instance_names,
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
        kb.instances.AddInstance(std::string(instance_names[i]),
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
      StringTableView context_names,
      image->Strings(SectionId::kContextNameOffsets,
                     SectionId::kContextNameBlob, 3 * num_contexts));
  for (size_t i = 0; i < num_contexts; ++i) {
    Context context{std::string(context_names[3 * i]),
                    std::string(context_names[3 * i + 1]),
                    std::string(context_names[3 * i + 2])};
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
  decoded.dag = ConceptDag::Borrow(dag_views);
  decoded.index_views = index_views;
  decoded.kb = std::move(kb);
  decoded.ingestion = std::move(ingestion);
  decoded.config = config;
  decoded.options_fingerprint = meta.options_fingerprint;
  return decoded;
}

}  // namespace medrelax::flat
