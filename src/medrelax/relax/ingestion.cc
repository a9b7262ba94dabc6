#include "medrelax/relax/ingestion.h"

#include <algorithm>
#include <tuple>

#include "medrelax/corpus/corpus_stats.h"
#include "medrelax/graph/topology.h"
#include "medrelax/graph/traversal.h"
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

Result<IngestionResult> RunIngestion(const KnowledgeBase& kb, ConceptDag* eks,
                                     const MappingFunction& mapper,
                                     const Corpus* corpus,
                                     const IngestionOptions& options) {
  MEDRELAX_RETURN_NOT_OK(ValidateExternalSource(*eks));

  IngestionResult result;

  // --- Context generation (Algorithm 1, lines 1-4). ---
  result.contexts = ContextRegistry::FromOntology(kb.ontology);
  const size_t num_contexts = result.contexts.size();

  // --- Mappings (lines 5-11). ---
  result.flagged.assign(eks->num_concepts(), false);
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
    result.concept_instances[a].push_back(i);
    // The contexts of A are the relationships associated with the mapped
    // instance's ontology concept (Section 5.1, "Concept frequency").
    const std::string& concept_name =
        kb.ontology.concept_name(instance.concept_id);
    for (ContextId ctx : result.contexts.ContextsWithRange(concept_name)) {
      std::vector<ContextId>& ctxs = result.concept_contexts[a];
      if (std::find(ctxs.begin(), ctxs.end(), ctx) == ctxs.end()) {
        ctxs.push_back(ctx);
      }
    }
  }

  // --- Concept frequency (lines 12-18). ---
  // Direct mention weight |A| per context, Equation 2's base term.
  std::vector<std::vector<double>> direct(
      num_contexts, std::vector<double>(eks->num_concepts(), 0.0));
  if (corpus != nullptr) {
    ConceptMentions mentions =
        CountConceptMentions(*eks, *corpus, num_contexts);
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
      for (ConceptId id = 0; id < eks->num_concepts(); ++id) {
        direct[ctx][id] = 1.0;
      }
    }
  }

  std::vector<ConceptId> roots = eks->Roots();
  MEDRELAX_ASSIGN_OR_RETURN(
      result.frequencies,
      PropagateFrequencies(*eks, direct, roots.front(), options.ic_smoothing));

  // --- External knowledge source customization (lines 19-23). ---
  if (options.add_shortcut_edges) {
    std::vector<std::tuple<ConceptId, ConceptId, uint32_t>> shortcuts;
    auto want = [&](uint32_t d) {
      return d >= 2 && d != UINT32_MAX &&
             (options.max_shortcut_distance == 0 ||
              d <= options.max_shortcut_distance);
    };
    for (ConceptId a = 0; a < eks->num_concepts(); ++a) {
      if (!result.flagged[a]) continue;
      // Flagged A: connect to every non-adjacent ancestor B.
      std::vector<uint32_t> up = UpDistances(*eks, a);
      for (ConceptId b = 0; b < eks->num_concepts(); ++b) {
        if (want(up[b])) shortcuts.emplace_back(a, b, up[b]);
      }
      // Flagged B(=a): connect every non-adjacent descendant to it.
      std::vector<uint32_t> down = DownDistances(*eks, a);
      for (ConceptId d = 0; d < eks->num_concepts(); ++d) {
        if (result.flagged[d]) continue;  // already handled by its own pass
        if (want(down[d])) shortcuts.emplace_back(d, a, down[d]);
      }
    }
    ConceptDagBuilder builder(*eks);
    for (const auto& [child, parent, distance] : shortcuts) {
      const size_t before = builder.num_shortcut_edges();
      MEDRELAX_RETURN_NOT_OK(builder.AddShortcut(child, parent, distance));
      if (builder.num_shortcut_edges() > before) ++result.shortcuts_added;
    }
    *eks = std::move(builder).Build();
  }

  return result;
}

}  // namespace medrelax
