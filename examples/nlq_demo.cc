// NLQ demo: the ATHENA-style natural-language-query integration of
// Section 6.2 / Figure 9, on the curated Figure 1 + Figure 5 fixtures.
//
// The running example is the paper's own: "What are the risks caused by
// using Aspirin with pyelectasia" — "risks" and "caused" match ontology
// metadata, "aspirin" matches instance data, and "pyelectasia" (absent
// from KB and ontology) is resolved through query relaxation into in-KB
// findings with similarity scores that feed the interpretation ranking.

#include <cstdio>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/nli/nlq_interpreter.h"
#include "medrelax/relax/ingestion.h"

using namespace medrelax;  // NOLINT — example brevity

int main() {
  // Figure 5's external DAG, extended with the pyelectasia leaf.
  Result<Figure5Fixture> fx = BuildFigure5Fixture();
  if (!fx.ok()) return 1;
  ConceptDagBuilder dag(fx->dag);
  ConceptId pyelectasia = *dag.AddConcept("pyelectasia");
  if (!dag.AddSubsumption(pyelectasia, fx->hypertensive_nephropathy).ok()) {
    return 1;
  }
  fx->dag = std::move(dag).Build();

  // Figure 1's ontology with a small ABox: aspirin treats + risks kidney
  // disease.
  KnowledgeBase kb;
  Result<DomainOntology> onto = BuildFigure1Ontology();
  if (!onto.ok()) return 1;
  kb.ontology = std::move(*onto);
  OntologyConceptId drug = kb.ontology.FindConcept("Drug");
  OntologyConceptId indication = kb.ontology.FindConcept("Indication");
  OntologyConceptId risk = kb.ontology.FindConcept("Risk");
  OntologyConceptId finding = kb.ontology.FindConcept("Finding");
  InstanceId aspirin = *kb.instances.AddInstance("aspirin", drug);
  InstanceId renal_ind = *kb.instances.AddInstance("renal care", indication);
  InstanceId renal_risk = *kb.instances.AddInstance("renal harm", risk);
  InstanceId kidney = *kb.instances.AddInstance("kidney disease", finding);
  for (RelationshipId r = 0; r < kb.ontology.num_relationships(); ++r) {
    const Relationship& rel = kb.ontology.relationship(r);
    const std::string& dn = kb.ontology.concept_name(rel.domain);
    if (rel.name == "treat") {
      // Freshly created ids in an empty store: AddTriple cannot fail.
      (void)kb.triples.AddTriple(aspirin, r, renal_ind);
    } else if (rel.name == "cause") {
      // Freshly created ids in an empty store: AddTriple cannot fail.
      (void)kb.triples.AddTriple(aspirin, r, renal_risk);
    } else if (rel.name == "hasFinding" && dn == "Indication") {
      // Freshly created ids in an empty store: AddTriple cannot fail.
      (void)kb.triples.AddTriple(renal_ind, r, kidney);
    } else if (rel.name == "hasFinding" && dn == "Risk") {
      // Freshly created ids in an empty store: AddTriple cannot fail.
      (void)kb.triples.AddTriple(renal_risk, r, kidney);
    }
  }

  NameIndex index(&fx->dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  Result<IngestionResult> ingestion =
      RunIngestion(kb, &fx->dag, matcher, nullptr, IngestionOptions{});
  if (!ingestion.ok()) return 1;
  RelaxationOptions relax_opts;
  relax_opts.top_k = 5;
  QueryRelaxer relaxer(&fx->dag, &*ingestion, &matcher, SimilarityOptions{},
                       relax_opts);
  NlqInterpreter nlq(&kb, &*ingestion, &relaxer);

  const std::string query =
      "what are the risks caused by using aspirin with pyelectasia";
  std::printf("NL query: %s\n\n", query.c_str());

  std::printf("--- Evidence generation (Section 6.2) ---\n");
  for (const TokenEvidence& te : nlq.GenerateEvidence(query)) {
    std::printf("  \"%s\":\n", te.surface.c_str());
    for (const Evidence& e : te.evidences) {
      switch (e.kind) {
        case EvidenceKind::kConceptMetadata:
          std::printf("    metadata concept: %s\n",
                      kb.ontology.concept_name(e.concept_id).c_str());
          break;
        case EvidenceKind::kRelationshipMetadata:
          std::printf("    metadata relationship: %s\n",
                      kb.ontology.relationship(e.relationship).name.c_str());
          break;
        case EvidenceKind::kDataValue:
          std::printf("    data value: %s\n",
                      kb.instances.instance(e.instance).name.c_str());
          break;
        case EvidenceKind::kRelaxedDataValue:
          std::printf("    relaxed data value: %s (score %.3f)\n",
                      kb.instances.instance(e.instance).name.c_str(),
                      e.score);
          break;
      }
    }
  }

  std::printf("\n--- Ranked interpretations ---\n");
  std::vector<Interpretation> interps = nlq.Interpret(query, 3);
  for (size_t i = 0; i < interps.size(); ++i) {
    std::printf("  #%zu  compactness=%zu  evidence-score=%.3f\n", i + 1,
                interps[i].compactness, interps[i].evidence_score);
    std::printf("      ITree = { %s }\n",
                interps[i].Describe(kb.ontology).c_str());
  }
  if (interps.empty()) return 1;

  std::printf("\n--- Executing the best non-empty interpretation ---\n");
  Result<NlqAnswer> answer = nlq.ExecuteFirstNonEmpty(interps);
  if (!answer.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  std::printf("  answer concept: %s\n",
              kb.ontology.concept_name(answer->answer_concept).c_str());
  for (InstanceId i : answer->instances) {
    std::printf("  -> %s\n", kb.instances.instance(i).name.c_str());
  }
  return 0;
}
