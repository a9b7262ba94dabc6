#include "medrelax/datasets/corpus_generator.h"

#include <algorithm>

#include "medrelax/common/random.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {

namespace {

constexpr const char* kClinicalFiller[] = {
    "patient",  "dose",      "daily",     "tablet",   "administration",
    "clinical", "study",     "treatment", "therapy",  "adults",
    "response", "observed",  "reported",  "common",   "rare",
    "severe",   "mild",      "onset",     "duration", "discontinue",
    "monitor",  "baseline",  "placebo",   "trial",    "incidence",
    "symptoms", "management", "evaluate", "history",  "renal",
    "hepatic",  "cardiac",   "oral",      "injection", "weekly",
};

constexpr const char* kGeneralFiller[] = {
    "health",    "wellness",  "lifestyle", "exercise",  "nutrition",
    "community", "awareness", "hospital",  "physician", "appointment",
    "insurance", "coverage",  "survey",    "population", "screening",
    "campaign",  "seasonal",  "vaccine",   "hygiene",   "guideline",
    "public",    "outreach",  "program",   "checkup",   "referral",
};

void AppendFiller(std::vector<std::string>* tokens, size_t count,
                  const char* const* pool, size_t pool_size, Rng* rng) {
  for (size_t i = 0; i < count; ++i) {
    tokens->push_back(pool[rng->UniformU64(pool_size)]);
  }
}

void AppendPhrase(std::vector<std::string>* tokens, const std::string& name) {
  for (std::string& tok : Tokenize(NormalizeTerm(name))) {
    tokens->push_back(std::move(tok));
  }
}

}  // namespace

Corpus GenerateMonographCorpus(const GeneratedWorld& world,
                               const CorpusGeneratorOptions& options) {
  Corpus corpus;
  Rng rng(options.seed);
  const ConceptDag& dag = world.eks.dag;

  auto mention_block = [&](ContextId ctx,
                           const std::vector<InstanceId>& findings) {
    DocumentSection section;
    section.context = ctx;
    AppendFiller(&section.tokens, options.filler_tokens / 3, kClinicalFiller,
                 std::size(kClinicalFiller), &rng);
    for (InstanceId f : findings) {
      auto it = world.true_link.find(f);
      if (it == world.true_link.end()) continue;
      ConceptId concept_id = it->second;
      double lambda =
          1.0 + options.mention_scale * world.eks.popularity[concept_id];
      uint64_t mentions = 1 + rng.Poisson(lambda);
      for (uint64_t m = 0; m < mentions; ++m) {
        AppendPhrase(&section.tokens, dag.name(concept_id));
        AppendFiller(&section.tokens, 2 + rng.UniformU64(4), kClinicalFiller,
                     std::size(kClinicalFiller), &rng);
      }
      // Mention generalizations so Equation 2's propagation has direct
      // corpus mass at inner concepts too.
      for (ConceptId parent : dag.parents(concept_id)) {
        if (rng.Bernoulli(options.ancestor_mention_prob)) {
          AppendPhrase(&section.tokens, dag.name(parent));
          AppendFiller(&section.tokens, 1 + rng.UniformU64(3),
                       kClinicalFiller, std::size(kClinicalFiller), &rng);
        }
      }
    }
    return section;
  };

  for (InstanceId drug : world.drug_instances) {
    Document doc;
    doc.name = world.kb.instances.instance(drug).name;

    auto treats_it = world.treats.find(drug);
    if (treats_it != world.treats.end()) {
      doc.sections.push_back(
          mention_block(world.ctx_indication, treats_it->second));
    }
    auto causes_it = world.causes.find(drug);
    if (causes_it != world.causes.end()) {
      doc.sections.push_back(mention_block(world.ctx_risk, causes_it->second));
    }

    // Untyped prose: drug name + filler + a couple of popular findings.
    DocumentSection prose;
    prose.context = kNoContext;
    AppendPhrase(&prose.tokens, doc.name);
    AppendFiller(&prose.tokens, options.filler_tokens, kClinicalFiller,
                 std::size(kClinicalFiller), &rng);
    for (int i = 0; i < 2 && !world.finding_instances.empty(); ++i) {
      InstanceId f = world.finding_instances[rng.UniformU64(
          world.finding_instances.size())];
      auto it = world.true_link.find(f);
      if (it != world.true_link.end()) {
        AppendPhrase(&prose.tokens, dag.name(it->second));
      }
    }
    doc.sections.push_back(std::move(prose));
    corpus.AddDocument(std::move(doc));
  }
  return corpus;
}

Corpus GenerateGeneralCorpus(const GeneratedEks& eks,
                             const GeneralCorpusOptions& options) {
  Corpus corpus;
  Rng rng(options.seed);

  // Only shallow (general) concept names enter the pre-training corpus.
  std::vector<ConceptId> shallow;
  for (ConceptId id = 0; id < eks.dag.num_concepts(); ++id) {
    if (eks.depth[id] <= options.max_concept_depth) shallow.push_back(id);
  }

  for (size_t d = 0; d < options.num_documents; ++d) {
    Document doc;
    doc.name = "general-" + std::to_string(d);
    DocumentSection section;
    section.context = kNoContext;
    while (section.tokens.size() < options.tokens_per_document) {
      AppendFiller(&section.tokens, 4 + rng.UniformU64(8), kGeneralFiller,
                   std::size(kGeneralFiller), &rng);
      if (!shallow.empty() && rng.Bernoulli(0.6)) {
        ConceptId id = shallow[rng.UniformU64(shallow.size())];
        AppendPhrase(&section.tokens, eks.dag.name(id));
      }
    }
    doc.sections.push_back(std::move(section));
    corpus.AddDocument(std::move(doc));
  }
  return corpus;
}

}  // namespace medrelax
