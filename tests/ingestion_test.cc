// Tests of the offline external-knowledge-source ingestion (Algorithm 1):
// context generation, mappings/flags, per-context frequencies, and the
// Figure 5 shortcut-edge customization.

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/relax/ingestion.h"

namespace medrelax {
namespace {

// A controlled world on the Figure 5 DAG: "kidney disease" is the only
// concept with a KB instance, matching Example 2.
struct Fig5World {
  Figure5Fixture fx;
  KnowledgeBase kb;
  InstanceId kidney_instance = kInvalidInstance;
};

Fig5World MakeFig5World() {
  Fig5World w;
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  EXPECT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  w.kidney_instance =
      *w.kb.instances.AddInstance("kidney disease", finding);
  return w;
}

TEST(Ingestion, GeneratesAllContexts) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  IngestionOptions options;
  auto result = RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Algorithm 1 lines 1-4: one context per relationship.
  EXPECT_EQ(result->contexts.size(), w.kb.ontology.num_relationships());
}

TEST(Ingestion, MapsAndFlagsInstances) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->mappings.size(), 1u);
  EXPECT_EQ(result->mappings[0].first, w.kidney_instance);
  EXPECT_EQ(result->mappings[0].second, w.fx.kidney_disease);
  EXPECT_TRUE(result->flagged[w.fx.kidney_disease]);
  EXPECT_FALSE(result->flagged[w.fx.hypertensive_nephropathy]);
  EXPECT_EQ(result->unmapped_instances, 0u);
  // Reverse index materializes the instance.
  auto it = result->concept_instances.find(w.fx.kidney_disease);
  ASSERT_NE(it, result->concept_instances.end());
  ASSERT_EQ(it->second.size(), 1u);
  EXPECT_EQ(it->second[0], w.kidney_instance);
}

TEST(Ingestion, ConceptContextsComeFromTheInstanceConcept) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  auto it = result->concept_contexts.find(w.fx.kidney_disease);
  ASSERT_NE(it, result->concept_contexts.end());
  // Figure 1 ontology has exactly 2 relationships with range Finding.
  EXPECT_EQ(it->second.size(), 2u);
}

TEST(Ingestion, Figure5ShortcutEdges) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->shortcuts_added, 0u);

  // Example 2: ckd-stage-1-due-to-hypertension was 3 hops from kidney
  // disease; after ingestion they are directly connected with the original
  // distance 3 attached.
  bool found = false;
  for (const DagEdge& e :
       w.fx.dag.parents(w.fx.ckd_stage1_due_to_hypertension)) {
    if (e.target == w.fx.kidney_disease && e.is_shortcut()) {
      found = true;
      EXPECT_EQ(e.original_distance, 3u);
    }
  }
  EXPECT_TRUE(found) << "expected the Figure 5 dashed edge";
}

TEST(Ingestion, NoShortcutsBetweenAdjacentConcepts) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  // hypertensive renal disease is a direct child of kidney disease: no
  // shortcut may duplicate that edge.
  size_t edges_to_kidney = 0;
  for (const DagEdge& e : w.fx.dag.parents(w.fx.hypertensive_renal_disease)) {
    if (e.target == w.fx.kidney_disease) ++edges_to_kidney;
  }
  EXPECT_EQ(edges_to_kidney, 1u);
}

TEST(Ingestion, ShortcutsCanBeDisabled) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  IngestionOptions options;
  options.add_shortcut_edges = false;
  auto result = RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->shortcuts_added, 0u);
  EXPECT_EQ(w.fx.dag.num_shortcut_edges(), 0u);
}

TEST(Ingestion, MaxShortcutDistanceCaps) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  IngestionOptions options;
  options.max_shortcut_distance = 2;
  auto result = RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, options);
  ASSERT_TRUE(result.ok());
  for (ConceptId id = 0; id < w.fx.dag.num_concepts(); ++id) {
    for (const DagEdge& e : w.fx.dag.parents(id)) {
      if (e.is_shortcut()) {
        EXPECT_LE(e.original_distance, 2u);
      }
    }
  }
}

TEST(Ingestion, StructuralFrequenciesWithoutCorpus) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  const FrequencyModel& freq = result->frequencies;
  // Corpus-free: freq = subtree size; leaf gets the minimum, root 1.
  EXPECT_DOUBLE_EQ(freq.Frequency(w.fx.root, 0), 1.0);
  EXPECT_LT(freq.Frequency(w.fx.ckd_stage1_due_to_hypertension, 0),
            freq.Frequency(w.fx.kidney_disease, 0));
  EXPECT_GT(freq.Ic(w.fx.ckd_stage1_due_to_hypertension, 0),
            freq.Ic(w.fx.kidney_disease, 0));
}

TEST(Ingestion, CorpusFrequenciesRespectContextSections) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);

  // A corpus mentioning "kidney disease" only in the Indication context.
  ContextRegistry registry = ContextRegistry::FromOntology(w.kb.ontology);
  ContextId ind = registry.FindByLabel("Indication-hasFinding-Finding");
  ContextId risk = registry.FindByLabel("Risk-hasFinding-Finding");
  ASSERT_NE(ind, kNoContext);
  ASSERT_NE(risk, kNoContext);
  Corpus corpus;
  Document doc;
  doc.name = "monograph";
  DocumentSection section;
  section.context = ind;
  section.tokens = {"kidney", "disease", "treated", "kidney", "disease"};
  doc.sections.push_back(section);
  corpus.AddDocument(std::move(doc));

  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, &corpus, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  const FrequencyModel& freq = result->frequencies;
  EXPECT_GT(freq.Raw(w.fx.kidney_disease, ind), 0.0);
  EXPECT_DOUBLE_EQ(freq.Raw(w.fx.kidney_disease, risk), 0.0);
  // Frequencies propagate upward: the root accumulates the mentions.
  EXPECT_GE(freq.Raw(w.fx.root, ind), freq.Raw(w.fx.kidney_disease, ind));
}

TEST(Ingestion, TfIdfToggleChangesWeights) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  ContextRegistry registry = ContextRegistry::FromOntology(w.kb.ontology);
  ContextId ind = registry.FindByLabel("Indication-hasFinding-Finding");
  Corpus corpus;
  Document doc;
  doc.name = "m";
  DocumentSection s;
  s.context = ind;
  s.tokens = {"kidney", "disease"};
  doc.sections.push_back(s);
  corpus.AddDocument(std::move(doc));

  IngestionOptions raw_opts;
  raw_opts.use_tfidf = false;
  // Fresh DAG copies (shortcut mutation): rebuild fixtures.
  Fig5World w2 = MakeFig5World();
  auto with_tfidf =
      RunIngestion(w.kb, &w.fx.dag, matcher, &corpus, IngestionOptions{});
  NameIndex index2(&w2.fx.dag);
  ExactMatcher matcher2(&index2);
  auto without =
      RunIngestion(w2.kb, &w2.fx.dag, matcher2, &corpus, raw_opts);
  ASSERT_TRUE(with_tfidf.ok());
  ASSERT_TRUE(without.ok());
  // Raw count = 1 mention; tf-idf = 1 * log(1 + N/df) = log(2) != 1.
  EXPECT_DOUBLE_EQ(without->frequencies.Raw(w2.fx.kidney_disease, ind), 1.0);
  EXPECT_NE(with_tfidf->frequencies.Raw(w.fx.kidney_disease, ind), 1.0);
}

TEST(Ingestion, UnmappedInstancesAreCounted) {
  Fig5World w = MakeFig5World();
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  ASSERT_TRUE(
      w.kb.instances.AddInstance("totally unknown condition", finding).ok());
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unmapped_instances, 1u);
}

TEST(Ingestion, RejectsMultiRootSource) {
  Fig5World w = MakeFig5World();
  ConceptDagBuilder broken_builder;
  ASSERT_TRUE(broken_builder.AddConcept("r1").ok());
  ASSERT_TRUE(broken_builder.AddConcept("r2").ok());
  ConceptDag broken = std::move(broken_builder).Build();
  NameIndex index(&broken);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &broken, matcher, nullptr, IngestionOptions{});
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(Ingestion, SynonymMappingFlagsSameConcept) {
  Fig5World w = MakeFig5World();
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  // "nephropathy" is a synonym of kidney disease in the fixture.
  ASSERT_TRUE(w.kb.instances.AddInstance("nephropathy", finding).ok());
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, &w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  // Both instances map to the same external concept.
  auto it = result->concept_instances.find(w.fx.kidney_disease);
  ASSERT_NE(it, result->concept_instances.end());
  EXPECT_EQ(it->second.size(), 2u);
}

// Property sweep over generated worlds: structural invariants of the
// ingestion output hold at every seed.
class IngestionSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IngestionSweep, InvariantsHold) {
  SnomedGeneratorOptions eks_opts;
  eks_opts.num_concepts = 400;
  eks_opts.seed = GetParam();
  KbGeneratorOptions kb_opts;
  kb_opts.num_drugs = 12;
  kb_opts.num_findings = 60;
  kb_opts.seed = GetParam() + 1;
  auto world = GenerateWorld(eks_opts, kb_opts);
  ASSERT_TRUE(world.ok());
  Corpus corpus = GenerateMonographCorpus(*world, CorpusGeneratorOptions{});
  NameIndex index(&world->eks.dag);
  ExactMatcher matcher(&index);
  auto result = RunIngestion(world->kb, &world->eks.dag, matcher, &corpus,
                             IngestionOptions{});
  ASSERT_TRUE(result.ok()) << result.status();

  const ConceptDag& dag = world->eks.dag;
  const FrequencyModel& freq = result->frequencies;
  ConceptId root = dag.Roots().front();

  // (1) Monotonicity: a parent's propagated frequency dominates each
  // child's in every context (Equation 2 sums children into parents).
  for (ConceptId child = 0; child < dag.num_concepts(); ++child) {
    for (const DagEdge& e : dag.parents(child)) {
      if (e.is_shortcut()) continue;
      for (ContextId ctx = 0; ctx < result->contexts.size(); ++ctx) {
        ASSERT_GE(freq.Raw(e.target, ctx), freq.Raw(child, ctx))
            << dag.name(e.target) << " < " << dag.name(child);
      }
    }
  }
  // (2) Root normalizes to 1 in every context; every frequency in (0, 1].
  for (ContextId ctx = 0; ctx < result->contexts.size(); ++ctx) {
    EXPECT_DOUBLE_EQ(freq.Frequency(root, ctx), 1.0);
  }
  for (ConceptId c = 0; c < dag.num_concepts(); ++c) {
    double f = freq.Frequency(c, kNoContext);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // (3) Every mapping's target is flagged; every flagged concept has
  // instances in the reverse index.
  for (const auto& [instance, concept_id] : result->mappings) {
    (void)instance;
    EXPECT_TRUE(result->flagged[concept_id]);
  }
  for (ConceptId c = 0; c < dag.num_concepts(); ++c) {
    if (!result->flagged[c]) continue;
    auto it = result->concept_instances.find(c);
    ASSERT_NE(it, result->concept_instances.end());
    EXPECT_FALSE(it->second.empty());
  }
  // (4) Shortcut edges never connect direct native neighbors, always have
  // distance >= 2, and always touch at least one flagged endpoint.
  for (ConceptId child = 0; child < dag.num_concepts(); ++child) {
    size_t native_and_shortcut_to_same_target = 0;
    std::vector<ConceptId> native_targets;
    for (const DagEdge& e : dag.parents(child)) {
      if (!e.is_shortcut()) native_targets.push_back(e.target);
    }
    for (const DagEdge& e : dag.parents(child)) {
      if (!e.is_shortcut()) continue;
      EXPECT_GE(e.original_distance, 2u);
      EXPECT_TRUE(result->flagged[child] || result->flagged[e.target]);
      for (ConceptId nt : native_targets) {
        if (nt == e.target) ++native_and_shortcut_to_same_target;
      }
    }
    EXPECT_EQ(native_and_shortcut_to_same_target, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestionSweep,
                         ::testing::Values(3, 19, 84, 5150));

}  // namespace
}  // namespace medrelax
