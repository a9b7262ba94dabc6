// Tests of multi-source merging: disjoint union, cross-source
// unification by surface form, cycle rejection, and ingestion over a
// merged external source.

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/graph/merge.h"
#include "medrelax/graph/topology.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {
namespace {

TEST(Merge, DisjointSourcesUnionUnderFreshRoot) {
  auto fig5 = BuildFigure5Fixture();
  auto fig6 = BuildFigure6Fixture();
  ASSERT_TRUE(fig5.ok());
  ASSERT_TRUE(fig6.ok());
  // Both fixtures name their root "snomed ct concept": unified — so the
  // merged graph keeps a single source-root layer under the fresh root.
  auto merged = MergeExternalSources(fig5->dag, fig6->dag, MergeOptions{});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_TRUE(ValidateExternalSource(merged->dag).ok());
  // Every concept of both sources is reachable from the merged root.
  std::vector<uint32_t> down = DownDistances(merged->dag, merged->root);
  for (ConceptId id : merged->from_a) {
    EXPECT_NE(down[id], UINT32_MAX);
  }
  for (ConceptId id : merged->from_b) {
    EXPECT_NE(down[id], UINT32_MAX);
  }
  // The shared root name unified.
  EXPECT_GE(merged->unified, 1u);
  EXPECT_EQ(merged->from_a[fig5->root], merged->from_b[fig6->root]);
}

TEST(Merge, UnifiesBySynonymAndMergesParents) {
  // Source A: root <- kidney disease (synonym "nephropathy").
  ConceptDagBuilder a_builder;
  ConceptId a_root = *a_builder.AddConcept("root a");
  ConceptId a_kidney = *a_builder.AddConcept("kidney disease");
  ASSERT_TRUE(a_builder.AddSynonym(a_kidney, "nephropathy").ok());
  ASSERT_TRUE(a_builder.AddSubsumption(a_kidney, a_root).ok());
  const ConceptDag a = std::move(a_builder).Build();

  // Source B names the same thing "nephropathy" under its own parent.
  ConceptDagBuilder b_builder;
  ConceptId b_root = *b_builder.AddConcept("root b");
  ConceptId b_organ = *b_builder.AddConcept("organ disorder");
  ConceptId b_kidney = *b_builder.AddConcept("nephropathy");
  ASSERT_TRUE(b_builder.AddSynonym(b_kidney, "renal disorder").ok());
  ASSERT_TRUE(b_builder.AddSubsumption(b_organ, b_root).ok());
  ASSERT_TRUE(b_builder.AddSubsumption(b_kidney, b_organ).ok());
  const ConceptDag b = std::move(b_builder).Build();

  auto merged = MergeExternalSources(a, b, MergeOptions{});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->unified, 1u);
  ConceptId unified = merged->from_a[a_kidney];
  EXPECT_EQ(merged->from_b[b_kidney], unified);
  // The unified concept inherits B's extra synonym and has parents from
  // both hierarchies.
  bool has_renal_disorder = false;
  for (const std::string& syn : merged->dag.synonyms(unified)) {
    if (syn == "renal disorder") has_renal_disorder = true;
  }
  EXPECT_TRUE(has_renal_disorder);
  EXPECT_EQ(merged->dag.parents(unified).size(), 2u);
}

TEST(Merge, NoUnificationDisambiguatesCollisions) {
  ConceptDagBuilder a_builder;
  ConceptId a_root = *a_builder.AddConcept("root");
  ConceptId a_x = *a_builder.AddConcept("fever");
  ASSERT_TRUE(a_builder.AddSubsumption(a_x, a_root).ok());
  ConceptDagBuilder b_builder;
  ConceptId b_root = *b_builder.AddConcept("root");
  ConceptId b_x = *b_builder.AddConcept("fever");
  ASSERT_TRUE(b_builder.AddSubsumption(b_x, b_root).ok());

  MergeOptions opts;
  opts.unify_by_name = false;
  ConceptDag a = std::move(a_builder).Build();
  ConceptDag b = std::move(b_builder).Build();
  auto merged = MergeExternalSources(a, b, opts);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->unified, 0u);
  EXPECT_NE(merged->from_a[a_x], merged->from_b[b_x]);
  EXPECT_EQ(merged->dag.name(merged->from_b[b_x]), "fever (source b)");
}

TEST(Merge, RejectsContradictoryHierarchies) {
  // A says x ⊑ y; B says y ⊑ x — unification makes a cycle.
  ConceptDagBuilder a_builder;
  ConceptId a_root = *a_builder.AddConcept("root");
  ConceptId a_y = *a_builder.AddConcept("y");
  ConceptId a_x = *a_builder.AddConcept("x");
  ASSERT_TRUE(a_builder.AddSubsumption(a_y, a_root).ok());
  ASSERT_TRUE(a_builder.AddSubsumption(a_x, a_y).ok());
  ConceptDagBuilder b_builder;
  ConceptId b_root = *b_builder.AddConcept("root");
  ConceptId b_x = *b_builder.AddConcept("x");
  ConceptId b_y = *b_builder.AddConcept("y");
  ASSERT_TRUE(b_builder.AddSubsumption(b_x, b_root).ok());
  ASSERT_TRUE(b_builder.AddSubsumption(b_y, b_x).ok());

  ConceptDag a = std::move(a_builder).Build();
  ConceptDag b = std::move(b_builder).Build();
  auto merged = MergeExternalSources(a, b, MergeOptions{});
  EXPECT_TRUE(merged.status().IsFailedPrecondition()) << merged.status();
}

TEST(Merge, IngestionAndRelaxationRunOverMergedSource) {
  // Figure 5's renal fragment merged with the pertussis-style respiratory
  // fragment of Figure 6; KB has one finding from each source.
  auto fig5 = BuildFigure5Fixture();
  auto fig6 = BuildFigure6Fixture();
  ASSERT_TRUE(fig5.ok());
  ASSERT_TRUE(fig6.ok());
  auto merged = MergeExternalSources(fig5->dag, fig6->dag, MergeOptions{});
  ASSERT_TRUE(merged.ok());

  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  KnowledgeBase kb;
  kb.ontology = std::move(*onto);
  OntologyConceptId finding = kb.ontology.FindConcept("Finding");
  InstanceId kidney = *kb.instances.AddInstance("kidney disease", finding);
  InstanceId pneumonia = *kb.instances.AddInstance("pneumonia", finding);

  NameIndex index(&merged->dag);
  ExactMatcher matcher(&index);
  auto ingestion = RunIngestion(kb, merged->dag, matcher, nullptr,
                                IngestionOptions{});
  ASSERT_TRUE(ingestion.ok()) << ingestion.status();

  QueryRelaxer relaxer(&merged->dag, &*ingestion, &matcher,
                       SimilarityOptions{}, RelaxationOptions{});
  // A renal query finds the renal finding first, not the respiratory one.
  auto renal = relaxer.Relax(
      "chronic kidney disease stage 1 due to hypertension", 0);
  ASSERT_TRUE(renal.ok()) << renal.status();
  ASSERT_FALSE(renal->instances.empty());
  EXPECT_EQ(renal->instances[0], kidney);
  // And a respiratory query finds pneumonia.
  auto resp = relaxer.Relax("lower respiratory tract infection", 0);
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp->instances.empty());
  EXPECT_EQ(resp->instances[0], pneumonia);
}

}  // namespace
}  // namespace medrelax
