#include "medrelax/relax/ingestion.h"

#include <algorithm>

#include "medrelax/corpus/corpus_stats.h"
#include "medrelax/graph/topology.h"
#include "medrelax/text/normalize.h"

namespace medrelax {

namespace {

// Builds mention statistics where each phrase is one surface form of an
// external concept; returns the stats plus surface->concept ownership.
struct ConceptMentions {
  MentionStats stats{std::vector<std::string>{}};
  // Parallel to the phrase list: owning concept of each phrase.
  std::vector<ConceptId> owner;
};

ConceptMentions CountConceptMentions(const ConceptDag& eks,
                                     const Corpus& corpus,
                                     size_t num_contexts) {
  ConceptMentions out;
  std::vector<std::string> phrases;
  for (ConceptId id = 0; id < eks.num_concepts(); ++id) {
    phrases.push_back(NormalizeTerm(eks.name(id)));
    out.owner.push_back(id);
    for (std::string_view syn : eks.synonyms(id)) {
      phrases.push_back(NormalizeTerm(syn));
      out.owner.push_back(id);
    }
  }
  out.stats = MentionStats(std::move(phrases));
  out.stats.Process(corpus, num_contexts);
  return out;
}

}  // namespace

ConceptCsr ConceptCsr::FromGroups(
    const std::vector<std::vector<uint32_t>>& groups) {
  auto storage = std::make_shared<Storage>();
  storage->offsets.reserve(groups.size() + 1);
  storage->offsets.push_back(0);
  for (const std::vector<uint32_t>& group : groups) {
    storage->values.insert(storage->values.end(), group.begin(), group.end());
    storage->offsets.push_back(storage->values.size());
  }
  ConceptCsr csr;
  csr.offsets_ = storage->offsets;
  csr.values_ = storage->values;
  csr.storage_ = std::move(storage);
  return csr;
}

ConceptCsr ConceptCsr::Borrow(std::span<const uint64_t> offsets,
                              std::span<const uint32_t> values) {
  ConceptCsr csr;
  csr.offsets_ = offsets;
  csr.values_ = values;
  return csr;
}

Result<IngestionResult> RunIngestion(const KnowledgeBase& kb,
                                     const ConceptDag& eks,
                                     const MappingFunction& mapper,
                                     const Corpus* corpus,
                                     const IngestionOptions& options) {
  MEDRELAX_RETURN_NOT_OK(ValidateExternalSource(eks));

  IngestionResult result;

  // --- Context generation (Algorithm 1, lines 1-4). ---
  result.contexts = ContextRegistry::FromOntology(kb.ontology);
  const size_t num_contexts = result.contexts.size();

  // --- Mappings (lines 5-11). ---
  result.flagged.assign(eks.num_concepts(), false);
  std::vector<std::vector<InstanceId>> instances_of(eks.num_concepts());
  std::vector<std::vector<ContextId>> contexts_of(eks.num_concepts());
  for (InstanceId i = 0; i < kb.instances.num_instances(); ++i) {
    const Instance& instance = kb.instances.instance(i);
    std::optional<ConceptMatch> match = mapper.Map(instance.name);
    if (!match.has_value()) {
      ++result.unmapped_instances;
      continue;
    }
    ConceptId a = match->id;
    result.mappings.emplace_back(i, a);
    result.flagged[a] = true;
    instances_of[a].push_back(i);
    // The contexts of A are the relationships associated with the mapped
    // instance's ontology concept (Section 5.1, "Concept frequency").
    const std::string& concept_name =
        kb.ontology.concept_name(instance.concept_id);
    for (ContextId ctx : result.contexts.ContextsWithRange(concept_name)) {
      std::vector<ContextId>& ctxs = contexts_of[a];
      if (std::find(ctxs.begin(), ctxs.end(), ctx) == ctxs.end()) {
        ctxs.push_back(ctx);
      }
    }
  }
  result.concept_instances = ConceptCsr::FromGroups(instances_of);
  result.concept_contexts = ConceptCsr::FromGroups(contexts_of);

  // --- Concept frequency (lines 12-18). ---
  // Direct mention weight |A| per context, Equation 2's base term.
  std::vector<std::vector<double>> direct(
      num_contexts, std::vector<double>(eks.num_concepts(), 0.0));
  if (corpus != nullptr) {
    ConceptMentions mentions =
        CountConceptMentions(eks, *corpus, num_contexts);
    for (size_t p = 0; p < mentions.owner.size(); ++p) {
      ConceptId owner = mentions.owner[p];
      for (ContextId ctx = 0; ctx < num_contexts; ++ctx) {
        direct[ctx][owner] += options.use_tfidf
                                  ? mentions.stats.TfIdfWeight(p, ctx)
                                  : static_cast<double>(
                                        mentions.stats.MentionCount(p, ctx));
      }
    }
  } else {
    // Corpus-free (QR-no-corpus): intrinsic structural IC — every concept
    // counts once, so freq reduces to subtree mass (Seco et al. style).
    for (ContextId ctx = 0; ctx < num_contexts; ++ctx) {
      for (ConceptId id = 0; id < eks.num_concepts(); ++id) {
        direct[ctx][id] = 1.0;
      }
    }
  }

  std::vector<ConceptId> roots = eks.Roots();
  MEDRELAX_ASSIGN_OR_RETURN(
      result.frequencies,
      PropagateFrequencies(eks, direct, roots.front(), options.ic_smoothing));

  return result;
}

}  // namespace medrelax
