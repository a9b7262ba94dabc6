// Conversation demo: the two Watson Assistant integration scenarios of
// Section 6.1, replayed against the self-contained conversational layer.
//
//   Scenario 1 (Figure 7): the user asks about "pyelectasia", which is not
//   in the KB; query relaxation repairs the conversation with semantically
//   related in-KB conditions.
//
//   Scenario 2 (Figure 8): the user asks about a condition the KB knows;
//   relaxation expands the answer with related conditions before the
//   direct drug information.
//
// The demo runs each scenario twice — with and without query relaxation —
// so the "I don't understand" counterfactual is visible.

#include <cstdio>
#include <memory>

#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/nli/dialogue_manager.h"
#include "medrelax/relax/feedback.h"
#include "medrelax/relax/ingestion.h"

using namespace medrelax;  // NOLINT — example brevity

namespace {

void Turn(DialogueManager* dialogue, const std::string& utterance) {
  std::printf("  user  > %s\n", utterance.c_str());
  DialogueResponse r = dialogue->Handle(utterance);
  std::printf("  watson> %s%s\n\n", r.text.c_str(),
              r.used_relaxation ? "   [query relaxation used]" : "");
}

}  // namespace

int main() {
  SnomedGeneratorOptions eks_opts;
  eks_opts.num_concepts = 1500;
  eks_opts.seed = 7;
  KbGeneratorOptions kb_opts;
  kb_opts.num_drugs = 50;
  kb_opts.num_findings = 150;
  kb_opts.seed = 8;
  Result<GeneratedWorld> world = GenerateWorld(eks_opts, kb_opts);
  if (!world.ok()) return 1;
  Corpus corpus = GenerateMonographCorpus(*world, CorpusGeneratorOptions{});

  NameIndex index(&world->eks.dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  Result<IngestionResult> ingestion = RunIngestion(
      world->kb, world->eks.dag, matcher, &corpus, IngestionOptions{});
  if (!ingestion.ok()) return 1;

  // Bootstrap the intent classifier from the ontology (Section 4).
  IntentClassifier intents;
  TrainingDataOptions td;
  intents.Train(
      GenerateContextTrainingData(world->kb, ingestion->contexts, td),
      ingestion->contexts.size());
  EntityExtractor entities(&world->kb,
                           BuildQueryVocabulary(world->kb.ontology));
  RelaxationOptions relax_opts;
  relax_opts.top_k = 7;  // Figure 8 surfaces 7 additional concepts
  QueryRelaxer relaxer(&world->eks.dag, &*ingestion, &matcher,
                       SimilarityOptions{}, relax_opts);

  DialogueManager with_qr(&world->kb, &*ingestion, &intents, &entities,
                          &relaxer, DialogueOptions{});
  DialogueManager without_qr(&world->kb, &*ingestion, &intents, &entities,
                             nullptr, DialogueOptions{});

  // Pick a known in-KB condition and an out-of-KB one from the generated
  // world (the synthetic stand-ins for "fever" and "pyelectasia").
  std::vector<bool> in_kb(world->eks.dag.num_concepts(), false);
  for (ConceptId c : world->kb_finding_concepts) in_kb[c] = true;
  std::string known;
  for (InstanceId f : world->finding_instances) {
    if ((world->participation[world->true_link.at(f)] & kParticipatesTreat) !=
        0) {
      known = world->kb.instances.instance(f).name;
      break;
    }
  }
  std::string unknown;
  for (ConceptId c : world->eks.finding_concepts) {
    if (!in_kb[c] && world->eks.depth[c] >= 4) {
      unknown = world->eks.dag.name(c);
      break;
    }
  }

  std::printf("=== Scenario 1 (Figure 7): unknown term, WITH relaxation ===\n");
  Turn(&with_qr, "what drugs treat " + unknown);
  std::printf("=== Scenario 1 counterfactual: unknown term, NO relaxation ===\n");
  Turn(&without_qr, "what drugs treat " + unknown);

  std::printf("=== Scenario 2 (Figure 8): known term, WITH relaxation ===\n");
  Turn(&with_qr, "what drugs treat " + known);

  std::printf("=== Context carry-over (Section 4): short follow-up ===\n");
  Turn(&with_qr, "what about " + unknown);

  // Relevance feedback (the improvement Section 7.2 proposes): the user
  // dismisses the top suggestion; the next answer ranks differently.
  std::printf("=== Relevance feedback: 'not that one' ===\n");
  FeedbackRelaxer feedback(&relaxer, &world->eks.dag, FeedbackOptions{});
  with_qr.set_feedback(&feedback);
  DialogueResponse before = with_qr.Handle("what drugs treat " + unknown);
  std::printf("  user  > what drugs treat %s\n", unknown.c_str());
  std::printf("  watson> %s\n", before.text.c_str());
  if (!before.surfaced_concepts.empty()) {
    ConceptId top = before.surfaced_concepts[0];
    std::printf("  user  > (dismisses \"%s\")\n",
                world->eks.dag.name(top).c_str());
    with_qr.RejectSuggestion(top);
    with_qr.RejectSuggestion(top);
    DialogueResponse after = with_qr.Handle("what drugs treat " + unknown);
    std::printf("  watson> %s\n", after.text.c_str());
  }
  return 0;
}
