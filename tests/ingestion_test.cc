// Tests of the offline external-knowledge-source ingestion (Algorithm 1):
// context generation, mappings/flags, per-context frequencies, and the
// Figure 5 shortcut edges, which ShortcutEdges computes and ingestion no
// longer adds to the DAG.

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/graph/traversal.h"
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
  auto result = RunIngestion(w.kb, w.fx.dag, matcher, nullptr, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Algorithm 1 lines 1-4: one context per relationship.
  EXPECT_EQ(result->contexts.size(), w.kb.ontology.num_relationships());
}

TEST(Ingestion, MapsAndFlagsInstances) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->mappings.size(), 1u);
  EXPECT_EQ(result->mappings[0].first, w.kidney_instance);
  EXPECT_EQ(result->mappings[0].second, w.fx.kidney_disease);
  EXPECT_TRUE(result->flagged[w.fx.kidney_disease]);
  EXPECT_FALSE(result->flagged[w.fx.hypertensive_nephropathy]);
  EXPECT_EQ(result->unmapped_instances, 0u);
  // Reverse index materializes the instance.
  const std::span<const InstanceId> instances =
      result->concept_instances[w.fx.kidney_disease];
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], w.kidney_instance);
}

TEST(Ingestion, ConceptContextsComeFromTheInstanceConcept) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  // Figure 1 ontology has exactly 2 relationships with range Finding.
  EXPECT_EQ(result->concept_contexts[w.fx.kidney_disease].size(), 2u);
}

TEST(Ingestion, Figure5ShortcutEdges) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());

  // Example 2: ckd-stage-1-due-to-hypertension is 3 hops from kidney
  // disease; the shortcut rule connects them directly with the original
  // distance 3 attached.
  bool found = false;
  for (const ShortcutEdge& e : ShortcutEdges(w.fx.dag, result->flagged)) {
    if (e.child == w.fx.ckd_stage1_due_to_hypertension &&
        e.ancestor == w.fx.kidney_disease) {
      found = true;
      EXPECT_EQ(e.distance, 3u);
    }
  }
  EXPECT_TRUE(found) << "expected the Figure 5 dashed edge";
}

TEST(Ingestion, NoShortcutsBetweenAdjacentConcepts) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  // hypertensive renal disease is a direct child of kidney disease: no
  // shortcut may duplicate that edge.
  for (const ShortcutEdge& e : ShortcutEdges(w.fx.dag, result->flagged)) {
    EXPECT_FALSE(e.child == w.fx.hypertensive_renal_disease &&
                 e.ancestor == w.fx.kidney_disease);
    EXPECT_GE(e.distance, 2u);
  }
  const std::span<const ConceptId> parents =
      w.fx.dag.parents(w.fx.hypertensive_renal_disease);
  EXPECT_EQ(std::count(parents.begin(), parents.end(), w.fx.kidney_disease),
            1);
}

TEST(Ingestion, LeavesTheDagNativeOnly) {
  // Lines 19-23 are not applied: the DAG keeps exactly its native edges.
  Fig5World w = MakeFig5World();
  const size_t edges = w.fx.dag.num_edges();
  std::vector<std::vector<ConceptId>> parents;
  for (ConceptId id = 0; id < w.fx.dag.num_concepts(); ++id) {
    const std::span<const ConceptId> p = w.fx.dag.parents(id);
    parents.emplace_back(p.begin(), p.end());
  }
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(ShortcutEdges(w.fx.dag, result->flagged).empty());
  EXPECT_EQ(w.fx.dag.num_edges(), edges);
  for (ConceptId id = 0; id < w.fx.dag.num_concepts(); ++id) {
    const std::span<const ConceptId> p = w.fx.dag.parents(id);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), parents[id].begin(),
                           parents[id].end()));
  }
}

TEST(Ingestion, StructuralFrequenciesWithoutCorpus) {
  Fig5World w = MakeFig5World();
  NameIndex index(&w.fx.dag);
  ExactMatcher matcher(&index);
  auto result =
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
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
      RunIngestion(w.kb, w.fx.dag, matcher, &corpus, IngestionOptions{});
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
  auto with_tfidf =
      RunIngestion(w.kb, w.fx.dag, matcher, &corpus, IngestionOptions{});
  auto without = RunIngestion(w.kb, w.fx.dag, matcher, &corpus, raw_opts);
  ASSERT_TRUE(with_tfidf.ok());
  ASSERT_TRUE(without.ok());
  // Raw count = 1 mention; tf-idf = 1 * log(1 + N/df) = log(2) != 1.
  EXPECT_DOUBLE_EQ(without->frequencies.Raw(w.fx.kidney_disease, ind), 1.0);
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
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
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
      RunIngestion(w.kb, broken, matcher, nullptr, IngestionOptions{});
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
      RunIngestion(w.kb, w.fx.dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(result.ok());
  // Both instances map to the same external concept.
  EXPECT_EQ(result->concept_instances.count(w.fx.kidney_disease), 2u);
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
  auto result = RunIngestion(world->kb, world->eks.dag, matcher, &corpus,
                             IngestionOptions{});
  ASSERT_TRUE(result.ok()) << result.status();

  const ConceptDag& dag = world->eks.dag;
  const FrequencyModel& freq = result->frequencies;
  ConceptId root = dag.Roots().front();

  // (1) Monotonicity: a parent's propagated frequency dominates each
  // child's in every context (Equation 2 sums children into parents).
  for (ConceptId child = 0; child < dag.num_concepts(); ++child) {
    for (ConceptId parent : dag.parents(child)) {
      for (ContextId ctx = 0; ctx < result->contexts.size(); ++ctx) {
        ASSERT_GE(freq.Raw(parent, ctx), freq.Raw(child, ctx))
            << dag.name(parent) << " < " << dag.name(child);
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
    EXPECT_FALSE(result->concept_instances[c].empty());
  }
  // (4) Shortcut edges never connect direct native neighbors, always have
  // distance >= 2, and always touch at least one flagged endpoint.
  for (const ShortcutEdge& e : ShortcutEdges(dag, result->flagged)) {
    EXPECT_GE(e.distance, 2u);
    EXPECT_TRUE(result->flagged[e.child] || result->flagged[e.ancestor]);
    const std::span<const ConceptId> parents = dag.parents(e.child);
    EXPECT_EQ(std::find(parents.begin(), parents.end(), e.ancestor),
              parents.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestionSweep,
                         ::testing::Values(3, 19, 84, 5150));

}  // namespace
}  // namespace medrelax
