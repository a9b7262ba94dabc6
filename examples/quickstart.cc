// Quickstart: the full medrelax pipeline in one file.
//
//   1. Generate a synthetic SNOMED-like external knowledge source and a
//      MED-shaped knowledge base against it (stand-ins for the paper's
//      license-gated data, see DESIGN.md).
//   2. Run the offline ingestion (Algorithm 1) — contexts, mappings,
//      per-context frequencies, shortcut edges.
//   3. Relax a query term online (Algorithm 2) and print the expanded
//      answers.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

using namespace medrelax;  // NOLINT — example brevity

int main() {
  // --- 1. Build the world. ---
  SnomedGeneratorOptions eks_opts;
  eks_opts.num_concepts = 2000;
  eks_opts.seed = 42;
  KbGeneratorOptions kb_opts;
  kb_opts.num_drugs = 60;
  kb_opts.num_findings = 200;
  kb_opts.seed = 43;
  Result<GeneratedWorld> world = GenerateWorld(eks_opts, kb_opts);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  Corpus corpus = GenerateMonographCorpus(*world, CorpusGeneratorOptions{});
  std::printf("external source: %zu concepts, %zu edges\n",
              world->eks.dag.num_concepts(), world->eks.dag.num_edges());
  std::printf("knowledge base : %zu instances, %zu assertions, "
              "%zu relationships\n",
              world->kb.instances.num_instances(),
              world->kb.triples.num_triples(),
              world->kb.ontology.num_relationships());
  std::printf("corpus         : %zu monographs, %zu tokens\n\n",
              corpus.size(), corpus.TotalTokens());

  // --- 2. Offline ingestion (Algorithm 1). ---
  NameIndex index(&world->eks.dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  Result<IngestionResult> ingestion = RunIngestion(
      world->kb, world->eks.dag, matcher, &corpus, IngestionOptions{});
  if (!ingestion.ok()) {
    std::fprintf(stderr, "ingestion failed: %s\n",
                 ingestion.status().ToString().c_str());
    return 1;
  }
  size_t flagged = 0;
  for (bool f : ingestion->flagged) flagged += f ? 1 : 0;
  std::printf("ingestion      : %zu contexts, %zu mappings, %zu flagged "
              "concepts\n\n",
              ingestion->contexts.size(), ingestion->mappings.size(), flagged);

  // --- 3. Online relaxation (Algorithm 2). ---
  RelaxationOptions relax_opts;
  relax_opts.top_k = 10;
  QueryRelaxer relaxer(&world->eks.dag, &*ingestion, &matcher,
                       SimilarityOptions{}, relax_opts);

  // Pick an out-of-KB condition so relaxation has real work to do.
  std::vector<bool> in_kb(world->eks.dag.num_concepts(), false);
  for (ConceptId c : world->kb_finding_concepts) in_kb[c] = true;
  ConceptId query = kInvalidConcept;
  for (ConceptId c : world->eks.finding_concepts) {
    if (!in_kb[c] && world->eks.depth[c] >= 4) {
      query = c;
      break;
    }
  }
  if (query == kInvalidConcept) query = world->eks.finding_concepts.front();

  const std::string term = world->eks.dag.name(query);
  std::printf("query term     : \"%s\" (not in the KB)\n", term.c_str());
  std::printf("context        : %s\n\n",
              ingestion->contexts.context(world->ctx_indication)
                  .Label()
                  .c_str());

  Result<RelaxationOutcome> outcome =
      relaxer.Relax(term, world->ctx_indication);
  if (!outcome.ok()) {
    std::fprintf(stderr, "relaxation failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("top relaxed concepts (radius %u):\n",
              outcome->effective_radius);
  for (const ScoredConcept& sc : outcome->concepts) {
    std::printf("  %-55s sim=%.4f  (%zu KB instance%s)\n",
                world->eks.dag.name(sc.concept_id).c_str(), sc.similarity,
                sc.instances.size(), sc.instances.size() == 1 ? "" : "s");
  }
  std::printf("\nexpanded KB answers:\n");
  for (InstanceId i : outcome->instances) {
    std::printf("  %s\n", world->kb.instances.instance(i).name.c_str());
  }
  return 0;
}
