// Tests of the supporting relaxation components: classic baseline
// measures (Wu-Palmer, path, Resnik), the similarity explanation API, the
// by-value pair geometry, and the relevance-feedback layer.

#include <memory>

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/baseline_measures.h"
#include "medrelax/relax/explain.h"
#include "medrelax/relax/feedback.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {
namespace {

// Figure 4 world with structural frequencies (uniform direct counts).
struct ExtrasWorld {
  Figure4Fixture fx;
  FrequencyModel freq{0, 0};
};

ExtrasWorld MakeExtrasWorld() {
  ExtrasWorld w;
  auto fx = BuildFigure4Fixture();
  EXPECT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  std::vector<std::vector<double>> direct(
      1, std::vector<double>(w.fx.dag.num_concepts(), 1.0));
  auto freq = PropagateFrequencies(w.fx.dag, direct, w.fx.root, 1.0);
  EXPECT_TRUE(freq.ok());
  w.freq = std::move(*freq);
  return w;
}

TEST(Baselines, WuPalmerBasics) {
  ExtrasWorld w = MakeExtrasWorld();
  auto base = BaselineMeasures::Create(&w.fx.dag, &w.freq);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(base->WuPalmer(w.fx.headache, w.fx.headache), 1.0);
  // Siblings under pohnr: lcs depth+1 = 4, both at depth+1 = 5:
  // 2*4 / (5+5) = 0.8.
  EXPECT_NEAR(base->WuPalmer(w.fx.craniofacial_pain, w.fx.pain_in_throat),
              0.8, 1e-12);
  // Closer pairs score higher.
  EXPECT_GT(base->WuPalmer(w.fx.frequent_headache, w.fx.headache),
            base->WuPalmer(w.fx.frequent_headache, w.fx.pain_in_throat));
}

TEST(Baselines, PathSimilarity) {
  ExtrasWorld w = MakeExtrasWorld();
  auto base = BaselineMeasures::Create(&w.fx.dag, &w.freq);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(base->PathSimilarity(w.fx.headache, w.fx.headache), 1.0);
  // headache -> craniofacial pain: 1 hop -> 1/2.
  EXPECT_DOUBLE_EQ(
      base->PathSimilarity(w.fx.headache, w.fx.craniofacial_pain), 0.5);
  // siblings: 2 hops -> 1/3.
  EXPECT_NEAR(
      base->PathSimilarity(w.fx.craniofacial_pain, w.fx.pain_in_throat),
      1.0 / 3.0, 1e-12);
}

TEST(Baselines, ResnikIsLcsIc) {
  ExtrasWorld w = MakeExtrasWorld();
  auto base = BaselineMeasures::Create(&w.fx.dag, &w.freq);
  ASSERT_TRUE(base.ok());
  double expected = w.freq.Ic(w.fx.pain_of_head_and_neck_region, 0);
  EXPECT_NEAR(base->Resnik(w.fx.craniofacial_pain, w.fx.pain_in_throat, 0),
              expected, 1e-12);
}

TEST(Baselines, RejectsCyclicDag) {
  ConceptDagBuilder builder;
  ConceptId x = *builder.AddConcept("x");
  ConceptId y = *builder.AddConcept("y");
  ASSERT_TRUE(builder.AddSubsumption(x, y).ok());
  ASSERT_TRUE(builder.AddSubsumption(y, x).ok());
  FrequencyModel dummy(2, 1);
  ConceptDag dag = std::move(builder).Build();
  EXPECT_FALSE(BaselineMeasures::Create(&dag, &dummy).ok());
}

TEST(Explain, MatchesSimilarityExactly) {
  ExtrasWorld w = MakeExtrasWorld();
  SimilarityModel model(&w.fx.dag, &w.freq, SimilarityOptions{});
  for (ConceptId a : {w.fx.headache, w.fx.frequent_headache,
                      w.fx.pain_in_throat}) {
    for (ConceptId b : {w.fx.craniofacial_pain,
                        w.fx.pain_of_head_and_neck_region, w.fx.headache}) {
      SimilarityExplanation ex =
          ExplainSimilarity(model, w.fx.dag, a, b, 0);
      EXPECT_DOUBLE_EQ(ex.similarity, model.Similarity(a, b, 0))
          << w.fx.dag.name(a) << " vs " << w.fx.dag.name(b);
      if (a != b) {
        EXPECT_NEAR(ex.similarity, ex.path_penalty * ex.sim_ic, 1e-12);
      }
    }
  }
}

TEST(Explain, RenderMentionsConceptNames) {
  ExtrasWorld w = MakeExtrasWorld();
  SimilarityModel model(&w.fx.dag, &w.freq, SimilarityOptions{});
  SimilarityExplanation ex = ExplainSimilarity(
      model, w.fx.dag, w.fx.headache, w.fx.pain_in_throat, 0);
  std::string text = ex.Render(w.fx.dag);
  EXPECT_NE(text.find("headache"), std::string::npos);
  EXPECT_NE(text.find("pain in throat"), std::string::npos);
  EXPECT_NE(text.find("UP"), std::string::npos);
  EXPECT_NE(text.find("DOWN"), std::string::npos);
}

TEST(Geometry, InterleavedGeometriesStayIntact) {
  // Regression: the non-memoized path used to return a reference into a
  // shared scratch slot, so fetching a second geometry corrupted the
  // first. Geometries are by value now; interleaving must be safe.
  ExtrasWorld w = MakeExtrasWorld();
  SimilarityModel model(&w.fx.dag, &w.freq, SimilarityOptions{});
  PairGeometry first =
      model.Geometry(w.fx.frequent_headache, w.fx.pain_in_throat);
  PairGeometry second =
      model.Geometry(w.fx.craniofacial_pain, w.fx.headache);
  PairGeometry first_again =
      model.Geometry(w.fx.frequent_headache, w.fx.pain_in_throat);
  EXPECT_TRUE(first.connected);
  EXPECT_EQ(first.connected, first_again.connected);
  EXPECT_DOUBLE_EQ(first.gen_exponent, first_again.gen_exponent);
  EXPECT_DOUBLE_EQ(first.spec_exponent, first_again.spec_exponent);
  EXPECT_EQ(first.lcs, first_again.lcs);
  // And the two pairs are genuinely different, so aliasing would show.
  EXPECT_NE(first.lcs, second.lcs);
}

// Feedback tests run on the Figure 5 relax world.
struct FeedbackWorld {
  Figure5Fixture fx;
  KnowledgeBase kb;
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<ExactMatcher> matcher;
  IngestionResult ingestion;
  std::unique_ptr<QueryRelaxer> relaxer;
};

std::unique_ptr<FeedbackWorld> MakeFeedbackWorld() {
  auto w = std::make_unique<FeedbackWorld>();
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  w->fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  EXPECT_TRUE(onto.ok());
  w->kb.ontology = std::move(*onto);
  OntologyConceptId finding = w->kb.ontology.FindConcept("Finding");
  EXPECT_TRUE(w->kb.instances.AddInstance("kidney disease", finding).ok());
  EXPECT_TRUE(
      w->kb.instances.AddInstance("hypertensive renal disease", finding)
          .ok());
  w->index = std::make_unique<NameIndex>(&w->fx.dag);
  w->matcher = std::make_unique<ExactMatcher>(w->index.get());
  auto ingestion =
      RunIngestion(w->kb, &w->fx.dag, *w->matcher, nullptr,
                   IngestionOptions{});
  EXPECT_TRUE(ingestion.ok());
  w->ingestion = std::move(*ingestion);
  w->relaxer = std::make_unique<QueryRelaxer>(
      &w->fx.dag, &w->ingestion, w->matcher.get(), SimilarityOptions{},
      RelaxationOptions{});
  return w;
}

TEST(Feedback, NoFeedbackMatchesBase) {
  auto w = MakeFeedbackWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  RelaxationOutcome base =
      w->relaxer->RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  RelaxationOutcome wrapped =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_EQ(base.concepts.size(), wrapped.concepts.size());
  for (size_t i = 0; i < base.concepts.size(); ++i) {
    EXPECT_EQ(base.concepts[i].concept_id, wrapped.concepts[i].concept_id);
    EXPECT_DOUBLE_EQ(base.concepts[i].similarity,
                     wrapped.concepts[i].similarity);
  }
}

TEST(Feedback, RejectionDemotesTopResult) {
  auto w = MakeFeedbackWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  RelaxationOutcome before =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_GE(before.concepts.size(), 2u);
  ConceptId top = before.concepts[0].concept_id;
  feedback.Reject(top, 0);
  feedback.Reject(top, 0);
  RelaxationOutcome after =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_NE(after.concepts[0].concept_id, top);
}

TEST(Feedback, AcceptancePromotes) {
  auto w = MakeFeedbackWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  RelaxationOutcome before =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_GE(before.concepts.size(), 2u);
  ConceptId second = before.concepts[1].concept_id;
  for (int i = 0; i < 5; ++i) feedback.Accept(second, 0);
  RelaxationOutcome after =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_EQ(after.concepts[0].concept_id, second);
}

TEST(Feedback, FactorsClampAndReset) {
  auto w = MakeFeedbackWorld();
  FeedbackOptions opts;
  opts.max_factor = 2.0;
  opts.min_factor = 0.5;
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, opts);
  for (int i = 0; i < 50; ++i) feedback.Accept(w->fx.kidney_disease, 0);
  EXPECT_DOUBLE_EQ(feedback.Factor(w->fx.kidney_disease, 0), 2.0);
  for (int i = 0; i < 50; ++i) feedback.Reject(w->fx.kidney_disease, 0);
  EXPECT_DOUBLE_EQ(feedback.Factor(w->fx.kidney_disease, 0), 0.5);
  feedback.Reset();
  EXPECT_DOUBLE_EQ(feedback.Factor(w->fx.kidney_disease, 0), 1.0);
  EXPECT_EQ(feedback.feedback_cells(), 0u);
}

TEST(Feedback, PropagatesToNeighborsAttenuated) {
  auto w = MakeFeedbackWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  feedback.Reject(w->fx.hypertensive_renal_disease, 0);
  double direct = feedback.Factor(w->fx.hypertensive_renal_disease, 0);
  double parent = feedback.Factor(w->fx.kidney_disease, 0);
  double child = feedback.Factor(w->fx.hypertensive_nephropathy, 0);
  EXPECT_LT(direct, 1.0);
  EXPECT_LT(parent, 1.0);
  EXPECT_LT(child, 1.0);
  EXPECT_GT(parent, direct);  // attenuated
  EXPECT_GT(child, direct);
  // Contexts are independent.
  EXPECT_DOUBLE_EQ(feedback.Factor(w->fx.hypertensive_renal_disease, 1), 1.0);
}

TEST(Feedback, OverfetchReplacesRejectedResults) {
  auto w = MakeFeedbackWorld();
  // Base k = 1: without over-fetch, rejecting the single result could
  // never surface the runner-up.
  RelaxationOptions tight;
  tight.top_k = 1;
  QueryRelaxer narrow(&w->fx.dag, &w->ingestion, w->matcher.get(),
                      SimilarityOptions{}, tight);
  FeedbackRelaxer feedback(&narrow, &w->fx.dag, FeedbackOptions{});
  RelaxationOutcome before =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_EQ(before.concepts.size(), 1u);
  ConceptId top = before.concepts[0].concept_id;
  for (int i = 0; i < 4; ++i) feedback.Reject(top, 0);
  RelaxationOutcome after =
      feedback.RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_EQ(after.concepts.size(), 1u);
  EXPECT_NE(after.concepts[0].concept_id, top);
}

TEST(Relaxer, NoContextQueryUsesAggregatedFrequencies) {
  auto w = MakeFeedbackWorld();
  // kNoContext is a legal context: Algorithm 2 falls back to aggregated
  // frequencies (Section 5.2, "Contextual information").
  RelaxationOutcome outcome = w->relaxer->RelaxConcept(
      w->fx.ckd_stage1_due_to_hypertension, kNoContext);
  EXPECT_FALSE(outcome.concepts.empty());
  for (size_t i = 1; i < outcome.concepts.size(); ++i) {
    EXPECT_GE(outcome.concepts[i - 1].similarity,
              outcome.concepts[i].similarity);
  }
}

TEST(Explain, DisconnectedPairIsMarked) {
  ConceptDagBuilder builder;
  ConceptId a = *builder.AddConcept("a");
  ConceptId b = *builder.AddConcept("b");
  FrequencyModel freq(2, 1);
  freq.Normalize(a);
  ConceptDag dag = std::move(builder).Build();
  SimilarityModel model(&dag, &freq, SimilarityOptions{});
  SimilarityExplanation ex = ExplainSimilarity(model, dag, a, b, 0);
  EXPECT_FALSE(ex.connected);
  EXPECT_DOUBLE_EQ(ex.similarity, 0.0);
  EXPECT_NE(ex.Render(dag).find("not connected"), std::string::npos);
}

TEST(Relaxer, WithKMatchesOptionsK) {
  auto w = MakeFeedbackWorld();
  RelaxationOutcome via_options =
      w->relaxer->RelaxConcept(w->fx.ckd_stage1_due_to_hypertension, 0);
  RelaxationOutcome via_k = w->relaxer->RelaxConceptWithK(
      w->fx.ckd_stage1_due_to_hypertension, 0,
      w->relaxer->options().top_k);
  ASSERT_EQ(via_options.concepts.size(), via_k.concepts.size());
  for (size_t i = 0; i < via_options.concepts.size(); ++i) {
    EXPECT_EQ(via_options.concepts[i].concept_id,
              via_k.concepts[i].concept_id);
  }
}

TEST(Feedback, ContextSpecificity) {
  auto w = MakeFeedbackWorld();
  FeedbackRelaxer feedback(w->relaxer.get(), &w->fx.dag, FeedbackOptions{});
  feedback.Accept(w->fx.kidney_disease, 3);
  EXPECT_GT(feedback.Factor(w->fx.kidney_disease, 3), 1.0);
  EXPECT_DOUBLE_EQ(feedback.Factor(w->fx.kidney_disease, 0), 1.0);
}

}  // namespace
}  // namespace medrelax
