// Tests of the online query relaxation (Algorithm 2): candidate retrieval
// within the radius, ranking by Equation 5, top-k materialization, dynamic
// radius growth, and the Scenario 1 flow ("pyelectasia" -> kidney disease).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {
namespace {

// Figure 5 world with several flagged concepts at different distances.
struct RelaxWorld {
  Figure5Fixture fx;
  KnowledgeBase kb;
  InstanceId kidney_instance = kInvalidInstance;
  InstanceId hrd_instance = kInvalidInstance;
  NameIndex* index = nullptr;  // owned below
  std::unique_ptr<NameIndex> index_holder;
  std::unique_ptr<ExactMatcher> matcher;
  IngestionResult ingestion;
};

RelaxWorld MakeRelaxWorld() {
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  // Add a synonym-named concept "pyelectasia" as a deep leaf near the ckd
  // chain so the Scenario 1 unknown-term flow has a resolvable query term.
  ConceptDagBuilder dag(w.fx.dag);
  ConceptId pyelectasia = *dag.AddConcept("pyelectasia");
  EXPECT_TRUE(
      dag.AddSubsumption(pyelectasia, w.fx.hypertensive_nephropathy).ok());
  w.fx.dag = std::move(dag).Build();

  auto onto = BuildFigure1Ontology();
  EXPECT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  w.hrd_instance =
      *w.kb.instances.AddInstance("hypertensive renal disease", finding);

  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, IngestionOptions{});
  EXPECT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);
  return w;
}

TEST(Relaxer, UnknownTermYieldsNotFound) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  auto result = relaxer.Relax("no such term at all", 0);
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(Relaxer, Scenario1PyelectasiaFindsKidneyDisease) {
  RelaxWorld w = MakeRelaxWorld();
  RelaxationOptions opts;
  opts.top_k = 5;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  auto result = relaxer.Relax("pyelectasia", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->concepts.empty());
  // Both flagged concepts should be surfaced; the instances materialize.
  ASSERT_FALSE(result->instances.empty());
  bool found_kidney = false;
  for (InstanceId i : result->instances) {
    if (i == w.kidney_instance) found_kidney = true;
  }
  EXPECT_TRUE(found_kidney);
}

TEST(Relaxer, OnlyFlaggedConceptsAreReturned) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  for (const ScoredConcept& sc : outcome.concepts) {
    EXPECT_TRUE(w.ingestion.flagged[sc.concept_id])
        << w.fx.dag.name(sc.concept_id);
  }
}

TEST(Relaxer, RankingIsDescendingSimilarity) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  for (size_t i = 1; i < outcome.concepts.size(); ++i) {
    EXPECT_GE(outcome.concepts[i - 1].similarity,
              outcome.concepts[i].similarity);
  }
}

TEST(Relaxer, CloserConceptRanksHigher) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  // From the ckd leaf, hypertensive renal disease (2 up) should outrank
  // kidney disease (3 up): more specific LCS and fewer generalizations.
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  ASSERT_GE(outcome.concepts.size(), 2u);
  EXPECT_EQ(outcome.concepts[0].concept_id, w.fx.hypertensive_renal_disease);
  EXPECT_EQ(outcome.concepts[1].concept_id, w.fx.kidney_disease);
}

TEST(Relaxer, QueryConceptItselfIncludedWhenFlagged) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  RelaxationOutcome outcome = relaxer.RelaxConcept(w.fx.kidney_disease, 0);
  ASSERT_FALSE(outcome.concepts.empty());
  // Exact match has similarity 1 and ranks first.
  EXPECT_EQ(outcome.concepts[0].concept_id, w.fx.kidney_disease);
  EXPECT_DOUBLE_EQ(outcome.concepts[0].similarity, 1.0);
}

TEST(Relaxer, FixedSmallRadiusLimitsCandidates) {
  RelaxWorld w = MakeRelaxWorld();
  RelaxationOptions opts;
  opts.radius = 2;
  opts.dynamic_radius = false;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  // The radius counts original hops even across shortcut edges, so radius
  // 2 reaches hypertensive renal disease (2 native hops up) but not
  // kidney disease (3) — with or without customization.
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_EQ(outcome.effective_radius, 2u);
  ASSERT_EQ(outcome.concepts.size(), 1u);
  EXPECT_EQ(outcome.concepts[0].concept_id, w.fx.hypertensive_renal_disease);
}

TEST(Relaxer, ShortcutsDoNotChangeCandidatesOrScores) {
  // Figure 5 regression: the radius-r ball and every similarity must be
  // identical with customization (shortcut edges) on and off — shortcuts
  // accelerate traversal, they never alter semantics.
  auto build = [](bool shortcuts) {
    RelaxWorld w;
    auto fx = BuildFigure5Fixture();
    EXPECT_TRUE(fx.ok());
    w.fx = std::move(*fx);
    auto onto = BuildFigure1Ontology();
    EXPECT_TRUE(onto.ok());
    w.kb.ontology = std::move(*onto);
    OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
    w.kidney_instance =
        *w.kb.instances.AddInstance("kidney disease", finding);
    w.hrd_instance =
        *w.kb.instances.AddInstance("hypertensive renal disease", finding);
    w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
    w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
    IngestionOptions ing_opts;
    ing_opts.add_shortcut_edges = shortcuts;
    auto ingestion =
        RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, ing_opts);
    EXPECT_TRUE(ingestion.ok());
    w.ingestion = std::move(*ingestion);
    return w;
  };
  RelaxWorld with = build(true);
  RelaxWorld without = build(false);
  for (uint32_t radius : {1u, 2u, 3u, 4u}) {
    RelaxationOptions opts;
    opts.radius = radius;
    opts.dynamic_radius = false;
    QueryRelaxer relaxer_with(&with.fx.dag, &with.ingestion,
                              with.matcher.get(), SimilarityOptions{}, opts);
    QueryRelaxer relaxer_without(&without.fx.dag, &without.ingestion,
                                 without.matcher.get(), SimilarityOptions{},
                                 opts);
    RelaxationOutcome a =
        relaxer_with.RelaxConcept(with.fx.ckd_stage1_due_to_hypertension, 0);
    RelaxationOutcome b = relaxer_without.RelaxConcept(
        without.fx.ckd_stage1_due_to_hypertension, 0);
    ASSERT_EQ(a.concepts.size(), b.concepts.size()) << "radius " << radius;
    for (size_t i = 0; i < a.concepts.size(); ++i) {
      EXPECT_EQ(a.concepts[i].concept_id, b.concepts[i].concept_id)
          << "radius " << radius;
      EXPECT_DOUBLE_EQ(a.concepts[i].similarity, b.concepts[i].similarity)
          << "radius " << radius;
    }
    EXPECT_EQ(a.instances, b.instances) << "radius " << radius;
  }
}

TEST(Relaxer, WithoutShortcutsSmallRadiusFindsNothing) {
  // Rebuild the world with shortcuts disabled: radius 1 now misses all
  // flagged concepts from the leaf.
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  IngestionOptions ing_opts;
  ing_opts.add_shortcut_edges = false;
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, ing_opts);
  ASSERT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);

  RelaxationOptions opts;
  opts.radius = 1;
  opts.dynamic_radius = false;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_TRUE(outcome.concepts.empty());
}

TEST(Relaxer, DynamicRadiusGrowsUntilResults) {
  // Same shortcut-free world, but dynamic growth enabled: the relaxer
  // expands r until the flagged concepts come into range.
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  IngestionOptions ing_opts;
  ing_opts.add_shortcut_edges = false;
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, ing_opts);
  ASSERT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);

  RelaxationOptions opts;
  opts.radius = 1;
  opts.dynamic_radius = true;
  opts.max_radius = 8;
  opts.top_k = 1;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  // kidney disease sits exactly 3 native hops above the ckd leaf, so
  // growth stops precisely at r=3 after trying r=1, 2, 3.
  EXPECT_EQ(outcome.effective_radius, 3u);
  EXPECT_EQ(outcome.stats.radius_iterations, 3u);
  ASSERT_FALSE(outcome.concepts.empty());
  EXPECT_EQ(outcome.instances[0], w.kidney_instance);
}

TEST(Relaxer, DynamicRadiusStopsAtMaxRadius) {
  // Shortcut-free world where the only flagged concept is 3 hops away but
  // max_radius caps growth at 2: the search must give up exactly there.
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  IngestionOptions ing_opts;
  ing_opts.add_shortcut_edges = false;
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, ing_opts);
  ASSERT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);

  RelaxationOptions opts;
  opts.radius = 1;
  opts.dynamic_radius = true;
  opts.max_radius = 2;
  opts.top_k = 1;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_EQ(outcome.effective_radius, 2u);
  EXPECT_EQ(outcome.stats.radius_iterations, 2u);
  EXPECT_TRUE(outcome.concepts.empty());
  EXPECT_TRUE(outcome.instances.empty());
}

TEST(Relaxer, OutOfRangeConceptFindsNothingAndGrowsToMaxRadius) {
  RelaxWorld w = MakeRelaxWorld();
  RelaxationOptions opts;
  opts.radius = 1;
  opts.max_radius = 6;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  const auto n = static_cast<ConceptId>(w.fx.dag.num_concepts());
  for (ConceptId query : {n, n + 100, kInvalidConcept}) {
    RelaxationOutcome outcome = relaxer.RelaxConcept(query, 0);
    EXPECT_EQ(outcome.query_concept, query);
    EXPECT_TRUE(outcome.concepts.empty()) << query;
    EXPECT_TRUE(outcome.instances.empty()) << query;
    EXPECT_EQ(outcome.effective_radius, 6u) << query;
    EXPECT_EQ(outcome.stats.radius_iterations, 6u) << query;
    EXPECT_EQ(outcome.stats.neighbors_visited, 0u) << query;
  }
}

TEST(Relaxer, NoFlaggedConceptFindsNothingAndGrowsToMaxRadius) {
  // With no flagged concept the core is empty: every concept is peeled
  // and unattached, and coverage is never met.
  RelaxWorld w = MakeRelaxWorld();
  w.ingestion.flagged.assign(w.fx.dag.num_concepts(), false);
  w.ingestion.concept_instances.clear();
  RelaxationOptions opts;
  opts.radius = 2;
  opts.max_radius = 7;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  for (ConceptId query : {w.fx.ckd_stage1_due_to_hypertension,
                          w.fx.kidney_disease, w.fx.root}) {
    RelaxationOutcome outcome = relaxer.RelaxConcept(query, 0);
    EXPECT_TRUE(outcome.concepts.empty()) << w.fx.dag.name(query);
    EXPECT_TRUE(outcome.instances.empty()) << w.fx.dag.name(query);
    EXPECT_EQ(outcome.effective_radius, 7u) << w.fx.dag.name(query);
    EXPECT_EQ(outcome.stats.radius_iterations, 6u) << w.fx.dag.name(query);
  }
}

TEST(Relaxer, FlaggedLeafStaysInTheCore) {
  // Without shortcut edges the "pyelectasia" leaf has a single edge, so it
  // would be peeled were it unflagged; flagged, it stays a candidate from
  // its parent and is its own best answer.
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  ConceptDagBuilder dag(w.fx.dag);
  ConceptId pyelectasia = *dag.AddConcept("pyelectasia");
  ASSERT_TRUE(
      dag.AddSubsumption(pyelectasia, w.fx.hypertensive_nephropathy).ok());
  w.fx.dag = std::move(dag).Build();
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  InstanceId pyelectasia_instance =
      *w.kb.instances.AddInstance("pyelectasia", finding);
  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  IngestionOptions ing_opts;
  ing_opts.add_shortcut_edges = false;
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, ing_opts);
  ASSERT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);
  ASSERT_TRUE(w.ingestion.flagged[pyelectasia]);
  ASSERT_EQ(w.fx.dag.parents(pyelectasia).size(), 1u);
  ASSERT_TRUE(w.fx.dag.children(pyelectasia).empty());

  RelaxationOptions opts;
  opts.radius = 1;
  opts.dynamic_radius = false;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome from_parent =
      relaxer.RelaxConcept(w.fx.hypertensive_nephropathy, 0);
  ASSERT_EQ(from_parent.concepts.size(), 1u);
  EXPECT_EQ(from_parent.concepts[0].concept_id, pyelectasia);
  EXPECT_EQ(from_parent.instances,
            std::vector<InstanceId>{pyelectasia_instance});
  RelaxationOutcome from_leaf = relaxer.RelaxConcept(pyelectasia, 0);
  ASSERT_FALSE(from_leaf.concepts.empty());
  EXPECT_EQ(from_leaf.concepts[0].concept_id, pyelectasia);
  EXPECT_DOUBLE_EQ(from_leaf.concepts[0].similarity, 1.0);
}

TEST(Relaxer, TopKStopsOnceInstancesCovered) {
  RelaxWorld w = MakeRelaxWorld();
  RelaxationOptions opts;
  opts.top_k = 1;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  // One concept suffices to cover k=1 instances.
  EXPECT_EQ(outcome.concepts.size(), 1u);
  EXPECT_EQ(outcome.instances.size(), 1u);
}

TEST(Relaxer, InstancesTruncatedToExactlyK) {
  // kidney disease carries three KB instances (direct name + the two
  // Figure 5 synonyms); the outcome must still stop at exactly k.
  RelaxWorld w;
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance = *w.kb.instances.AddInstance("kidney disease", finding);
  ASSERT_TRUE(w.kb.instances.AddInstance("nephropathy", finding).ok());
  ASSERT_TRUE(w.kb.instances.AddInstance("renal disease", finding).ok());
  w.hrd_instance =
      *w.kb.instances.AddInstance("hypertensive renal disease", finding);
  w.index_holder = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index_holder.get());
  auto ingestion =
      RunIngestion(w.kb, &w.fx.dag, *w.matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);

  RelaxationOptions opts;
  opts.top_k = 2;
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, opts);
  RelaxationOutcome outcome =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  // hypertensive renal disease (1 instance) ranks first; kidney disease
  // (3 instances) fills the remaining slot — and only that slot.
  EXPECT_EQ(outcome.instances.size(), 2u);
  ASSERT_EQ(outcome.concepts.size(), 2u);
  EXPECT_EQ(outcome.concepts[0].concept_id, w.fx.hypertensive_renal_disease);
  EXPECT_EQ(outcome.concepts[1].concept_id, w.fx.kidney_disease);
  EXPECT_EQ(outcome.instances[0], w.hrd_instance);
  // The concept keeps its full instance list; only the answer is cut.
  EXPECT_EQ(outcome.concepts[1].instances.size(), 3u);
}

TEST(Relaxer, RelaxBatchMatchesSequential) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  std::vector<ConceptQuery> queries = {
      {w.fx.ckd_stage1_due_to_hypertension, 0},
      {w.fx.kidney_disease, 0},
      {w.fx.hypertensive_renal_disease, 0},
      {w.fx.hypertensive_nephropathy, 0},
      {w.fx.ckd_stage1_due_to_hypertension, 0},
  };
  std::vector<RelaxationOutcome> batch = relaxer.RelaxBatch(queries, 2);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    RelaxationOutcome seq =
        relaxer.RelaxConcept(queries[i].concept_id, queries[i].context);
    EXPECT_EQ(batch[i].query_concept, seq.query_concept);
    EXPECT_EQ(batch[i].effective_radius, seq.effective_radius);
    ASSERT_EQ(batch[i].concepts.size(), seq.concepts.size()) << "query " << i;
    for (size_t j = 0; j < seq.concepts.size(); ++j) {
      EXPECT_EQ(batch[i].concepts[j].concept_id, seq.concepts[j].concept_id);
      EXPECT_DOUBLE_EQ(batch[i].concepts[j].similarity,
                       seq.concepts[j].similarity);
    }
    EXPECT_EQ(batch[i].instances, seq.instances) << "query " << i;
  }
}

TEST(Relaxer, StatsReportCandidatesAndCacheTraffic) {
  RelaxWorld w = MakeRelaxWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  RelaxationOutcome first =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  // Two flagged candidates in range.
  EXPECT_EQ(first.stats.candidates_scanned, 2u);
  EXPECT_GE(first.stats.radius_iterations, 1u);
  EXPECT_GT(first.stats.neighbors_visited, 0u);
  EXPECT_GT(first.stats.total_ns, 0u);
  // The second identical query recomputes every geometry and returns an
  // equal outcome.
  RelaxationOutcome second =
      relaxer.RelaxConcept(w.fx.ckd_stage1_due_to_hypertension, 0);
  EXPECT_EQ(second.stats.candidates_scanned, first.stats.candidates_scanned);
  EXPECT_EQ(second.effective_radius, first.effective_radius);
  ASSERT_EQ(second.concepts.size(), first.concepts.size());
  for (size_t i = 0; i < first.concepts.size(); ++i) {
    EXPECT_EQ(second.concepts[i].concept_id, first.concepts[i].concept_id);
    EXPECT_EQ(second.concepts[i].similarity, first.concepts[i].similarity);
  }
  EXPECT_EQ(second.instances, first.instances);
}

TEST(Relaxer, EditMatcherResolvesTypos) {
  RelaxWorld w = MakeRelaxWorld();
  EditDistanceMatcher edit(w.index_holder.get(), EditMatcherOptions{});
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, &edit, SimilarityOptions{},
                       RelaxationOptions{});
  // "pyelectesia" (one substitution) still resolves and relaxes.
  auto result = relaxer.Relax("pyelectesia", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->instances.empty());
}

}  // namespace
}  // namespace medrelax
