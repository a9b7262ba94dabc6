// Tests of the NLI layer: training-data bootstrap, intent classification,
// entity extraction, the conversational scenarios of Figures 7/8, and the
// NLQ interpreter of Section 6.2 / Figure 9.

#include <memory>

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/nli/dialogue_manager.h"
#include "medrelax/nli/entity_extractor.h"
#include "medrelax/nli/intent_classifier.h"
#include "medrelax/nli/nlq_interpreter.h"
#include "medrelax/nli/training_data.h"
#include "medrelax/relax/feedback.h"
#include "medrelax/relax/ingestion.h"

namespace medrelax {
namespace {

// The Figure 7/9 world: Figure 5's external DAG (with "pyelectasia" leaf)
// over the Figure 1 ontology, aspirin treating kidney disease.
struct NliWorld {
  Figure5Fixture fx;
  ConceptId pyelectasia = kInvalidConcept;
  KnowledgeBase kb;
  InstanceId aspirin = kInvalidInstance;
  InstanceId indication = kInvalidInstance;
  InstanceId risk = kInvalidInstance;
  InstanceId kidney = kInvalidInstance;
  ContextRegistry contexts;
  ContextId ctx_indication = kNoContext;
  ContextId ctx_risk = kNoContext;
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<ExactMatcher> exact;
  std::unique_ptr<EditDistanceMatcher> edit;
  IngestionResult ingestion;
  IntentClassifier intents;
  std::unique_ptr<EntityExtractor> entities;
  std::unique_ptr<QueryRelaxer> relaxer;
};

std::unique_ptr<NliWorld> MakeNliWorld() {
  auto w = std::make_unique<NliWorld>();
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  w->fx = std::move(*fx);
  ConceptDagBuilder dag(w->fx.dag);
  w->pyelectasia = *dag.AddConcept("pyelectasia");
  EXPECT_TRUE(
      dag.AddSubsumption(w->pyelectasia, w->fx.hypertensive_nephropathy).ok());
  w->fx.dag = std::move(dag).Build();

  auto onto = BuildFigure1Ontology();
  EXPECT_TRUE(onto.ok());
  w->kb.ontology = std::move(*onto);
  OntologyConceptId drug = w->kb.ontology.FindConcept("Drug");
  OntologyConceptId ind = w->kb.ontology.FindConcept("Indication");
  OntologyConceptId risk_c = w->kb.ontology.FindConcept("Risk");
  OntologyConceptId finding = w->kb.ontology.FindConcept("Finding");
  w->aspirin = *w->kb.instances.AddInstance("aspirin", drug);
  w->indication = *w->kb.instances.AddInstance("renal indication", ind);
  w->risk = *w->kb.instances.AddInstance("renal risk", risk_c);
  w->kidney = *w->kb.instances.AddInstance("kidney disease", finding);
  // A second flagged finding so relaxation rankings have something to
  // reorder (used by the feedback tests).
  EXPECT_TRUE(
      w->kb.instances.AddInstance("hypertensive renal disease", finding)
          .ok());

  RelationshipId treat = kInvalidRelationship, cause = kInvalidRelationship;
  RelationshipId ind_has = kInvalidRelationship,
                 risk_has = kInvalidRelationship;
  for (RelationshipId r = 0; r < w->kb.ontology.num_relationships(); ++r) {
    const Relationship& rel = w->kb.ontology.relationship(r);
    const std::string& dn = w->kb.ontology.concept_name(rel.domain);
    if (rel.name == "treat") treat = r;
    if (rel.name == "cause") cause = r;
    if (rel.name == "hasFinding" && dn == "Indication") ind_has = r;
    if (rel.name == "hasFinding" && dn == "Risk") risk_has = r;
  }
  EXPECT_TRUE(w->kb.triples.AddTriple(w->aspirin, treat, w->indication).ok());
  EXPECT_TRUE(
      w->kb.triples.AddTriple(w->indication, ind_has, w->kidney).ok());
  EXPECT_TRUE(w->kb.triples.AddTriple(w->aspirin, cause, w->risk).ok());
  EXPECT_TRUE(w->kb.triples.AddTriple(w->risk, risk_has, w->kidney).ok());

  w->index = std::make_unique<NameIndex>(&w->fx.dag);
  w->exact = std::make_unique<ExactMatcher>(w->index.get());
  w->edit =
      std::make_unique<EditDistanceMatcher>(w->index.get(),
                                            EditMatcherOptions{});
  auto ingestion =
      RunIngestion(w->kb, &w->fx.dag, *w->exact, nullptr, IngestionOptions{});
  EXPECT_TRUE(ingestion.ok());
  w->ingestion = std::move(*ingestion);
  w->contexts = ContextRegistry::FromOntology(w->kb.ontology);
  w->ctx_indication =
      w->contexts.FindByLabel("Indication-hasFinding-Finding");
  w->ctx_risk = w->contexts.FindByLabel("Risk-hasFinding-Finding");

  TrainingDataOptions td;
  td.examples_per_context = 30;
  std::vector<LabeledQuery> training =
      GenerateContextTrainingData(w->kb, w->contexts, td);
  w->intents.Train(training, w->contexts.size());

  w->entities = std::make_unique<EntityExtractor>(
      &w->kb, BuildQueryVocabulary(w->kb.ontology));

  RelaxationOptions ropts;
  ropts.top_k = 5;
  w->relaxer = std::make_unique<QueryRelaxer>(
      &w->fx.dag, &w->ingestion, w->edit.get(), SimilarityOptions{}, ropts);
  return w;
}

TEST(TrainingData, GeneratesLabeledExamplesPerContext) {
  auto w = MakeNliWorld();
  TrainingDataOptions td;
  td.examples_per_context = 10;
  std::vector<LabeledQuery> data =
      GenerateContextTrainingData(w->kb, w->contexts, td);
  // Every context gets its base quota; the two headline finding contexts
  // get canonical-workload enrichment on top.
  EXPECT_GE(data.size(), w->contexts.size() * 10);
  EXPECT_EQ(data.size(), w->contexts.size() * 10 + 2 * 10);
  for (const LabeledQuery& q : data) {
    EXPECT_FALSE(q.text.empty());
    EXPECT_LT(q.context, w->contexts.size());
  }
}

TEST(IntentClassifier, LearnsTreatVsCause) {
  auto w = MakeNliWorld();
  // Drug-phrased finding questions carry the hasFinding intents
  // (Section 4's canonical workload): treat -> Indication side, cause ->
  // Risk side.
  IntentPrediction treat = w->intents.Classify("what drugs treat fever");
  EXPECT_EQ(w->contexts.context(treat.context).Label(),
            "Indication-hasFinding-Finding");
  IntentPrediction cause = w->intents.Classify("what drugs cause fever");
  EXPECT_EQ(w->contexts.context(cause.context).Label(),
            "Risk-hasFinding-Finding");
}

TEST(IntentClassifier, PosteriorSumsToOne) {
  auto w = MakeNliWorld();
  std::vector<double> post = w->intents.Posterior("what drugs treat fever");
  ASSERT_EQ(post.size(), w->contexts.size());
  double total = 0.0;
  for (double p : post) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(IntentClassifier, UntrainedReturnsNoContext) {
  IntentClassifier fresh;
  IntentPrediction p = fresh.Classify("anything");
  EXPECT_EQ(p.context, kNoContext);
}

TEST(EntityExtractor, FindsKnownInstance) {
  auto w = MakeNliWorld();
  std::vector<EntityMention> mentions =
      w->entities->Extract("what drugs treat kidney disease");
  bool found = false;
  for (const EntityMention& m : mentions) {
    if (m.instance == w->kidney) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EntityExtractor, EmitsUnknownSpans) {
  auto w = MakeNliWorld();
  std::vector<EntityMention> mentions =
      w->entities->Extract("what drugs treat pyelectasia");
  bool unknown = false;
  for (const EntityMention& m : mentions) {
    if (m.instance == kInvalidInstance && m.surface == "pyelectasia") {
      unknown = true;
    }
  }
  EXPECT_TRUE(unknown);
}

TEST(EntityExtractor, JoinsContiguousUnknownTokens) {
  auto w = MakeNliWorld();
  std::vector<EntityMention> mentions =
      w->entities->Extract("what drugs treat psychogenic fever");
  bool joined = false;
  for (const EntityMention& m : mentions) {
    if (m.instance == kInvalidInstance && m.surface == "psychogenic fever") {
      joined = true;
    }
  }
  EXPECT_TRUE(joined);
}

TEST(Dialogue, Scenario1UnknownTermIsRepaired) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  DialogueResponse r = dialogue.Handle("what drugs treat pyelectasia");
  EXPECT_TRUE(r.used_relaxation);
  ASSERT_FALSE(r.surfaced_concepts.empty());
  // kidney disease must be among the repaired suggestions (Figure 7).
  bool kidney = false;
  for (ConceptId c : r.surfaced_concepts) {
    if (c == w->fx.kidney_disease) kidney = true;
  }
  EXPECT_TRUE(kidney);
  EXPECT_NE(r.text.find("kidney disease"), std::string::npos);
}

TEST(Dialogue, Scenario1WithoutQrSaysIDontUnderstand) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), /*relaxer=*/nullptr,
                           DialogueOptions{});
  DialogueResponse r = dialogue.Handle("what drugs treat pyelectasia");
  EXPECT_FALSE(r.used_relaxation);
  EXPECT_TRUE(r.surfaced_concepts.empty());
  EXPECT_NE(r.text.find("I don't understand"), std::string::npos);
}

TEST(Dialogue, Scenario2KnownTermIsExpandedAndAnswered) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  DialogueResponse r = dialogue.Handle("what drugs treat kidney disease");
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(r.answers[0], w->aspirin);
  // The known term's mapped concept is surfaced.
  ASSERT_FALSE(r.surfaced_concepts.empty());
  EXPECT_EQ(r.surfaced_concepts[0], w->fx.kidney_disease);
}

TEST(Dialogue, ContextCarryOverOnShortFollowUp) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  DialogueResponse first = dialogue.Handle("which drugs treat kidney disease");
  ContextId treat_ctx = first.context;
  // "what about pyelectasia?" carries the treat context forward
  // (Section 4, Context management).
  DialogueResponse followup = dialogue.Handle("what about pyelectasia");
  EXPECT_EQ(followup.context, treat_ctx);
  dialogue.Reset();
  EXPECT_EQ(dialogue.previous_context(), kNoContext);
}

TEST(Nlq, EvidenceGenerationCoversMetadataAndDataValues) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  std::vector<TokenEvidence> evidence =
      nlq.GenerateEvidence("what are the risks caused by aspirin");
  bool metadata_concept = false, data_value = false;
  for (const TokenEvidence& te : evidence) {
    for (const Evidence& e : te.evidences) {
      if (e.kind == EvidenceKind::kConceptMetadata) metadata_concept = true;
      if (e.kind == EvidenceKind::kDataValue) data_value = true;
    }
  }
  EXPECT_TRUE(metadata_concept);  // "risks" -> Risk
  EXPECT_TRUE(data_value);        // "aspirin" -> instance
}

TEST(Nlq, UnknownTermYieldsRelaxedEvidence) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  std::vector<TokenEvidence> evidence =
      nlq.GenerateEvidence("risks caused by aspirin with pyelectasia");
  bool relaxed = false;
  for (const TokenEvidence& te : evidence) {
    for (const Evidence& e : te.evidences) {
      if (e.kind == EvidenceKind::kRelaxedDataValue) {
        relaxed = true;
        EXPECT_GT(e.score, 0.0);
        EXPECT_LE(e.score, 1.0);
      }
    }
  }
  EXPECT_TRUE(relaxed);
}

TEST(Nlq, WithoutRelaxerUnknownTermsProduceNoEvidence) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, /*relaxer=*/nullptr);
  std::vector<TokenEvidence> evidence =
      nlq.GenerateEvidence("what about pyelectasia");
  for (const TokenEvidence& te : evidence) {
    EXPECT_NE(te.surface, "pyelectasia");
  }
}

TEST(Nlq, InterpretationsAreRankedByCompactness) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  std::vector<Interpretation> interps =
      nlq.Interpret("what are the risks caused by using aspirin with "
                    "pyelectasia",
                    5);
  ASSERT_FALSE(interps.empty());
  for (size_t i = 1; i < interps.size(); ++i) {
    EXPECT_LE(interps[i - 1].compactness, interps[i].compactness);
  }
  // The top interpretation must include the cause relationship (Figure 9's
  // Drug -cause-> Risk -hasFinding-> Finding reading).
  bool has_cause = false;
  for (RelationshipId r : interps[0].tree_edges) {
    if (w->kb.ontology.relationship(r).name == "cause") has_cause = true;
  }
  EXPECT_TRUE(has_cause);
  EXPECT_FALSE(interps[0].Describe(w->kb.ontology).empty());
}

TEST(Dialogue, FeedbackRerankingInfluencesSuggestions) {
  auto w = MakeNliWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  dialogue.set_feedback(&feedback);

  DialogueResponse first = dialogue.Handle("what drugs treat pyelectasia");
  ASSERT_GE(first.surfaced_concepts.size(), 2u);
  ConceptId top = first.surfaced_concepts[0];

  // The user dismisses the top suggestion twice; it should drop.
  dialogue.RejectSuggestion(top);
  dialogue.RejectSuggestion(top);
  DialogueResponse second = dialogue.Handle("what drugs treat pyelectasia");
  ASSERT_FALSE(second.surfaced_concepts.empty());
  EXPECT_NE(second.surfaced_concepts[0], top);
}

TEST(Dialogue, FeedbackIsNoOpWithoutAttachedLayer) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  DialogueResponse first = dialogue.Handle("what drugs treat pyelectasia");
  ASSERT_FALSE(first.surfaced_concepts.empty());
  dialogue.RejectSuggestion(first.surfaced_concepts[0]);  // must not crash
  DialogueResponse second = dialogue.Handle("what drugs treat pyelectasia");
  EXPECT_EQ(first.surfaced_concepts, second.surfaced_concepts);
}

TEST(Dialogue, FullFigure7FlowEndsWithDirectAnswer) {
  auto w = MakeNliWorld();
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(),
                           DialogueOptions{});
  // Turn 1: unknown term -> repaired with suggestions.
  DialogueResponse repaired = dialogue.Handle("what drugs treat pyelectasia");
  ASSERT_TRUE(repaired.used_relaxation);
  ASSERT_FALSE(repaired.surfaced_concepts.empty());
  // Turn 2: the user picks a suggestion by name ("kidney disease") — a
  // known instance now, answered directly with the drugs (Figure 7's
  // continuation).
  DialogueResponse direct = dialogue.Handle("tell me about kidney disease");
  ASSERT_FALSE(direct.answers.empty());
  EXPECT_EQ(direct.answers[0], w->aspirin);
}

TEST(Dialogue, SuggestionCapIsRespected) {
  auto w = MakeNliWorld();
  DialogueOptions opts;
  opts.max_suggestions = 1;
  DialogueManager dialogue(&w->kb, &w->ingestion, &w->intents,
                           w->entities.get(), w->relaxer.get(), opts);
  DialogueResponse r = dialogue.Handle("what drugs treat pyelectasia");
  EXPECT_LE(r.surfaced_concepts.size(), 1u);
}

TEST(Nlq, ExecuteAnswersTheFigure9Query) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  std::vector<Interpretation> interps =
      nlq.Interpret("what are the risks caused by using aspirin with "
                    "pyelectasia",
                    3);
  ASSERT_FALSE(interps.empty());
  // The best-scored grounding may have no KB links (a relaxed value with
  // no assertions); the executor falls through to the next reading.
  auto answer = nlq.ExecuteFirstNonEmpty(interps);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // The question asks for risks: the answer concept is Risk and the only
  // instance surviving the joins is aspirin's renal risk.
  EXPECT_EQ(answer->answer_concept, w->kb.ontology.FindConcept("Risk"));
  ASSERT_EQ(answer->instances.size(), 1u);
  EXPECT_EQ(answer->instances[0], w->risk);
}

TEST(Nlq, ExecuteEnforcesGroundings) {
  auto w = MakeNliWorld();
  // Add a second drug with its own risk that has no finding link; it must
  // not survive a query grounded in aspirin.
  OntologyConceptId drug = w->kb.ontology.FindConcept("Drug");
  OntologyConceptId risk_c = w->kb.ontology.FindConcept("Risk");
  InstanceId other_drug = *w->kb.instances.AddInstance("tamoxitol", drug);
  InstanceId other_risk =
      *w->kb.instances.AddInstance("hepatic risk", risk_c);
  RelationshipId cause = kInvalidRelationship;
  for (RelationshipId r = 0; r < w->kb.ontology.num_relationships(); ++r) {
    if (w->kb.ontology.relationship(r).name == "cause") cause = r;
  }
  ASSERT_TRUE(w->kb.triples.AddTriple(other_drug, cause, other_risk).ok());

  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  std::vector<Interpretation> interps =
      nlq.Interpret("what are the risks caused by aspirin", 3);
  ASSERT_FALSE(interps.empty());
  auto answer = nlq.Execute(interps[0]);
  ASSERT_TRUE(answer.ok()) << answer.status();
  for (InstanceId i : answer->instances) {
    EXPECT_NE(i, other_risk) << "ungrounded risk leaked into the answer";
  }
}

TEST(Nlq, ExecuteRejectsEmptyInterpretation) {
  auto w = MakeNliWorld();
  NlqInterpreter nlq(&w->kb, &w->ingestion, w->relaxer.get());
  Interpretation empty;
  EXPECT_TRUE(nlq.Execute(empty).status().IsInvalidArgument());
}

}  // namespace
}  // namespace medrelax
