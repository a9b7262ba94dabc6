#include "medrelax/datasets/paper_fixtures.h"

namespace medrelax {

Result<DomainOntology> BuildFigure1Ontology() {
  DomainOntology onto;
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId drug, onto.AddConcept("Drug"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId indication,
                            onto.AddConcept("Indication"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId risk, onto.AddConcept("Risk"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId finding,
                            onto.AddConcept("Finding"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId bbw,
                            onto.AddConcept("Black Box Warning"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId adverse,
                            onto.AddConcept("Adverse Effect"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId contra,
                            onto.AddConcept("Contra Indication"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId dosage,
                            onto.AddConcept("Dosage"));
  MEDRELAX_ASSIGN_OR_RETURN(OntologyConceptId route, onto.AddConcept("Route"));

  MEDRELAX_RETURN_NOT_OK(onto.AddRelationship("treat", drug, indication).status());
  MEDRELAX_RETURN_NOT_OK(onto.AddRelationship("cause", drug, risk).status());
  MEDRELAX_RETURN_NOT_OK(
      onto.AddRelationship("hasFinding", indication, finding).status());
  MEDRELAX_RETURN_NOT_OK(
      onto.AddRelationship("hasFinding", risk, finding).status());
  MEDRELAX_RETURN_NOT_OK(
      onto.AddRelationship("hasDosage", drug, dosage).status());
  MEDRELAX_RETURN_NOT_OK(onto.AddRelationship("hasRoute", drug, route).status());

  MEDRELAX_RETURN_NOT_OK(onto.AddSubConcept(bbw, risk));
  MEDRELAX_RETURN_NOT_OK(onto.AddSubConcept(adverse, risk));
  MEDRELAX_RETURN_NOT_OK(onto.AddSubConcept(contra, risk));
  return onto;
}

Result<Figure4Fixture> BuildFigure4Fixture() {
  Figure4Fixture fx;
  ConceptDagBuilder fx_dag;
  MEDRELAX_ASSIGN_OR_RETURN(fx.root, fx_dag.AddConcept("snomed ct concept"));
  MEDRELAX_ASSIGN_OR_RETURN(ConceptId clinical_finding,
                            fx_dag.AddConcept("clinical finding"));
  MEDRELAX_ASSIGN_OR_RETURN(ConceptId pain, fx_dag.AddConcept("pain"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.pain_of_head_and_neck_region,
                            fx_dag.AddConcept("pain of head and neck region"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.craniofacial_pain,
                            fx_dag.AddConcept("craniofacial pain"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.pain_in_throat,
                            fx_dag.AddConcept("pain in throat"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.headache, fx_dag.AddConcept("headache"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.frequent_headache,
                            fx_dag.AddConcept("frequent headache"));

  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSynonym(fx.headache, "cephalalgia"));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSynonym(fx.pain_in_throat, "sore throat"));

  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(clinical_finding, fx.root));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(pain, clinical_finding));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSubsumption(fx.pain_of_head_and_neck_region, pain));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(
      fx.craniofacial_pain, fx.pain_of_head_and_neck_region));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(
      fx.pain_in_throat, fx.pain_of_head_and_neck_region));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSubsumption(fx.headache, fx.craniofacial_pain));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSubsumption(fx.frequent_headache, fx.headache));

  // Figure 4's printed Indication-context numbers: 18878 + 283 + 3 = 19164.
  fx.indication_direct_counts = {
      {fx.headache, 18878.0},
      {fx.pain_in_throat, 283.0},
      {fx.pain_of_head_and_neck_region, 3.0},
  };
  // The figure prints only the Risk-context total (1656); the split below
  // is our choice, consistent with that total.
  fx.risk_direct_counts = {
      {fx.headache, 1500.0},
      {fx.pain_in_throat, 153.0},
      {fx.pain_of_head_and_neck_region, 3.0},
  };
  fx.dag = std::move(fx_dag).Build();
  return fx;
}

Result<Figure5Fixture> BuildFigure5Fixture() {
  Figure5Fixture fx;
  ConceptDagBuilder fx_dag;
  MEDRELAX_ASSIGN_OR_RETURN(fx.root, fx_dag.AddConcept("snomed ct concept"));
  MEDRELAX_ASSIGN_OR_RETURN(ConceptId clinical_finding,
                            fx_dag.AddConcept("clinical finding"));
  MEDRELAX_ASSIGN_OR_RETURN(ConceptId disorder,
                            fx_dag.AddConcept("disorder of body system"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.kidney_disease,
                            fx_dag.AddConcept("kidney disease"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.hypertensive_renal_disease,
                            fx_dag.AddConcept("hypertensive renal disease"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.hypertensive_nephropathy,
                            fx_dag.AddConcept("hypertensive nephropathy"));
  MEDRELAX_ASSIGN_OR_RETURN(
      fx.ckd_stage1_due_to_hypertension,
      fx_dag.AddConcept(
          "chronic kidney disease stage 1 due to hypertension"));

  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSynonym(fx.kidney_disease, "nephropathy"));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSynonym(fx.kidney_disease, "renal disease"));

  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(clinical_finding, fx.root));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(disorder, clinical_finding));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(fx.kidney_disease, disorder));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(fx.hypertensive_renal_disease,
                                               fx.kidney_disease));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(
      fx.hypertensive_nephropathy, fx.hypertensive_renal_disease));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(
      fx.ckd_stage1_due_to_hypertension, fx.hypertensive_nephropathy));
  fx.dag = std::move(fx_dag).Build();
  return fx;
}

Result<Figure6Fixture> BuildFigure6Fixture() {
  Figure6Fixture fx;
  ConceptDagBuilder fx_dag;
  MEDRELAX_ASSIGN_OR_RETURN(fx.root, fx_dag.AddConcept("snomed ct concept"));
  // The apex the 4-hop path climbs to (3 generalizations from pneumonia,
  // 1 from lower respiratory tract infection).
  MEDRELAX_ASSIGN_OR_RETURN(
      ConceptId respiratory_disorder,
      fx_dag.AddConcept("disorder of respiratory system"));
  MEDRELAX_ASSIGN_OR_RETURN(
      ConceptId lower_respiratory_disorder,
      fx_dag.AddConcept("disorder of lower respiratory system"));
  MEDRELAX_ASSIGN_OR_RETURN(ConceptId lung_disease,
                            fx_dag.AddConcept("disease of lung"));
  MEDRELAX_ASSIGN_OR_RETURN(fx.pneumonia, fx_dag.AddConcept("pneumonia"));
  MEDRELAX_ASSIGN_OR_RETURN(
      fx.lower_respiratory_tract_infection,
      fx_dag.AddConcept("lower respiratory tract infection"));

  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(respiratory_disorder, fx.root));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSubsumption(lower_respiratory_disorder, respiratory_disorder));
  MEDRELAX_RETURN_NOT_OK(
      fx_dag.AddSubsumption(lung_disease, lower_respiratory_disorder));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(fx.pneumonia, lung_disease));
  MEDRELAX_RETURN_NOT_OK(fx_dag.AddSubsumption(
      fx.lower_respiratory_tract_infection, respiratory_disorder));

  fx.intermediates = {lung_disease, lower_respiratory_disorder,
                      respiratory_disorder};
  fx.dag = std::move(fx_dag).Build();
  return fx;
}

}  // namespace medrelax
