// Frequency walkthrough: reproduces, number for number, the worked
// examples the paper prints in Figures 4, 5, and 6.
//
//   Figure 4 — per-context frequency propagation (Equation 2):
//              19164 = 18878 + 283 + 3 in the Indication context.
//   Figure 5 — shortcut edges: the rule of Algorithm 1 lines 19-23 turns a
//              3-hop chain into one edge carrying the original distance,
//              so search semantics never change (and ingestion leaves
//              the DAG native-only).
//   Figure 6 — direction-dependent path penalty (Equation 4): pneumonia ->
//              LRTI is punished more than LRTI -> pneumonia.

#include <cmath>
#include <cstdio>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/frequency_model.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/similarity.h"

using namespace medrelax;  // NOLINT — example brevity

int main() {
  // --- Figure 4. ---
  Result<Figure4Fixture> fig4 = BuildFigure4Fixture();
  if (!fig4.ok()) return 1;
  std::vector<std::vector<double>> direct(
      2, std::vector<double>(fig4->dag.num_concepts(), 0.0));
  for (const auto& [id, count] : fig4->indication_direct_counts) {
    direct[0][id] = count;
  }
  for (const auto& [id, count] : fig4->risk_direct_counts) {
    direct[1][id] = count;
  }
  Result<FrequencyModel> freq =
      PropagateFrequencies(fig4->dag, direct, fig4->root, 0.0);
  if (!freq.ok()) return 1;

  std::printf("=== Figure 4: frequency propagation (Equation 2) ===\n");
  auto row = [&](ConceptId id) {
    std::printf("  %-32s Indication=%7.0f  Risk=%6.0f\n",
                fig4->dag.name(id).c_str(), freq->Raw(id, 0),
                freq->Raw(id, 1));
  };
  row(fig4->headache);
  row(fig4->pain_in_throat);
  row(fig4->craniofacial_pain);
  row(fig4->pain_of_head_and_neck_region);
  std::printf("  paper prints: 19164 (= 18878 + 283 + 3) and 1656  -> %s\n\n",
              freq->Raw(fig4->pain_of_head_and_neck_region, 0) == 19164.0 &&
                      freq->Raw(fig4->pain_of_head_and_neck_region, 1) ==
                          1656.0
                  ? "reproduced"
                  : "MISMATCH");

  // --- Figure 5. ---
  Result<Figure5Fixture> fig5 = BuildFigure5Fixture();
  if (!fig5.ok()) return 1;
  KnowledgeBase kb;
  Result<DomainOntology> onto = BuildFigure1Ontology();
  if (!onto.ok()) return 1;
  kb.ontology = std::move(*onto);
  OntologyConceptId finding = kb.ontology.FindConcept("Finding");
  // Demo setup on an empty store; a name collision is impossible here.
  (void)kb.instances.AddInstance("kidney disease", finding);

  std::printf("=== Figure 5: shortcut edges (Example 2) ===\n");
  uint32_t before = UpDistance(fig5->dag, fig5->ckd_stage1_due_to_hypertension,
                               fig5->kidney_disease);
  NameIndex index(&fig5->dag);
  ExactMatcher matcher(&index);
  Result<IngestionResult> ingestion =
      RunIngestion(kb, fig5->dag, matcher, nullptr, IngestionOptions{});
  if (!ingestion.ok()) return 1;
  uint32_t ball_hops = 0;
  uint32_t preserved = 0;
  bool direct_edge = false;
  for (const Neighbor& n : NeighborsWithinRadius(
           fig5->dag, fig5->ckd_stage1_due_to_hypertension, before)) {
    if (n.id == fig5->kidney_disease) ball_hops = n.hops;
  }
  for (const ShortcutEdge& e : ShortcutEdges(fig5->dag, ingestion->flagged)) {
    if (e.child == fig5->ckd_stage1_due_to_hypertension &&
        e.ancestor == fig5->kidney_disease) {
      direct_edge = true;
      preserved = e.distance;
    }
  }
  std::printf("  \"chronic kidney disease stage 1 due to hypertension\" -> "
              "\"kidney disease\"\n");
  std::printf("  native distance: %u hops; the shortcut rule gives %s edge "
              "carrying original distance %u, radius search still reports "
              "%u hops\n\n",
              before, direct_edge ? "one direct" : "no", preserved,
              ball_hops);

  // --- Figure 6. ---
  Result<Figure6Fixture> fig6 = BuildFigure6Fixture();
  if (!fig6.ok()) return 1;
  std::vector<std::vector<double>> uniform(
      1, std::vector<double>(fig6->dag.num_concepts(), 1.0));
  Result<FrequencyModel> freq6 =
      PropagateFrequencies(fig6->dag, uniform, fig6->root, 1.0);
  if (!freq6.ok()) return 1;
  SimilarityModel model(&fig6->dag, &*freq6, SimilarityOptions{});

  std::printf("=== Figure 6: direction-dependent penalty (Equation 4) ===\n");
  double fwd = model.PathPenalty(fig6->pneumonia,
                                 fig6->lower_respiratory_tract_infection);
  double rev = model.PathPenalty(fig6->lower_respiratory_tract_infection,
                                 fig6->pneumonia);
  std::printf("  query = pneumonia                 : p = %.6f (0.9^6 = %.6f)\n",
              fwd, std::pow(0.9, 6));
  std::printf("  query = lower resp tract infection: p = %.6f (0.9^3 = %.6f)\n",
              rev, std::pow(0.9, 3));
  std::printf("  early generalizations are penalized more -> %s\n",
              fwd < rev ? "reproduced" : "MISMATCH");
  return 0;
}
