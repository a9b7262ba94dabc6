#include "medrelax/datasets/kb_generator.h"

#include <algorithm>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {

namespace {

// 43 concepts, matching the MED statistic of Section 7.1.
constexpr const char* kMedConcepts[] = {
    "Drug",           "Indication",      "Risk",
    "Finding",        "Black Box Warning", "Adverse Effect",
    "Contra Indication", "Dosage",       "Route",
    "Form",           "Strength",        "Interaction",
    "Warning",        "Precaution",      "Monitoring",
    "Lab Test",       "Procedure",       "Organism",
    "Allergy",        "Patient Group",   "Pregnancy",
    "Lactation",      "Pediatric",       "Geriatric",
    "Renal Impairment", "Hepatic Impairment", "Administration",
    "Storage",        "Overdose",        "Mechanism",
    "Pharmacokinetics", "Pharmacodynamics", "Brand Name",
    "Manufacturer",   "Drug Class",      "Schedule",
    "Cost Tier",      "Evidence",        "Guideline",
    "Education",      "Toxicology",      "Antidote",
    "Symptom",
};

struct RelRow {
  const char* domain;
  const char* name;
  const char* range;
};

// 58 relationships, matching Section 7.1, including the Figure 1 core.
constexpr RelRow kMedRelationships[] = {
    {"Drug", "treat", "Indication"},
    {"Drug", "cause", "Risk"},
    {"Indication", "hasFinding", "Finding"},
    {"Risk", "hasFinding", "Finding"},
    {"Drug", "hasDosage", "Dosage"},
    {"Drug", "hasRoute", "Route"},
    {"Drug", "hasForm", "Form"},
    {"Drug", "hasStrength", "Strength"},
    {"Drug", "hasInteraction", "Interaction"},
    {"Interaction", "involves", "Drug"},
    {"Drug", "hasWarning", "Warning"},
    {"Drug", "hasPrecaution", "Precaution"},
    {"Drug", "requires", "Monitoring"},
    {"Monitoring", "uses", "Lab Test"},
    {"Drug", "hasBlackBoxWarning", "Black Box Warning"},
    {"Drug", "hasAdverseEffect", "Adverse Effect"},
    {"Drug", "hasContraIndication", "Contra Indication"},
    {"Contra Indication", "hasFinding", "Finding"},
    {"Adverse Effect", "hasFinding", "Finding"},
    {"Black Box Warning", "hasFinding", "Finding"},
    {"Procedure", "treats", "Indication"},
    {"Procedure", "diagnoses", "Finding"},
    {"Organism", "causes", "Finding"},
    {"Drug", "targets", "Organism"},
    {"Allergy", "involvesDrug", "Drug"},
    {"Allergy", "hasFinding", "Finding"},
    {"Patient Group", "hasRisk", "Risk"},
    {"Drug", "usedIn", "Patient Group"},
    {"Drug", "hasPregnancyGuidance", "Pregnancy"},
    {"Drug", "hasLactationGuidance", "Lactation"},
    {"Drug", "hasPediatricGuidance", "Pediatric"},
    {"Drug", "hasGeriatricGuidance", "Geriatric"},
    {"Drug", "hasRenalGuidance", "Renal Impairment"},
    {"Drug", "hasHepaticGuidance", "Hepatic Impairment"},
    {"Drug", "hasAdministration", "Administration"},
    {"Drug", "hasStorage", "Storage"},
    {"Drug", "hasOverdose", "Overdose"},
    {"Overdose", "hasFinding", "Finding"},
    {"Overdose", "treatedBy", "Antidote"},
    {"Drug", "hasMechanism", "Mechanism"},
    {"Drug", "hasPharmacokinetics", "Pharmacokinetics"},
    {"Drug", "hasPharmacodynamics", "Pharmacodynamics"},
    {"Drug", "hasBrandName", "Brand Name"},
    {"Drug", "madeBy", "Manufacturer"},
    {"Drug", "inClass", "Drug Class"},
    {"Drug", "hasSchedule", "Schedule"},
    {"Drug", "hasCostTier", "Cost Tier"},
    {"Guideline", "recommends", "Drug"},
    {"Guideline", "basedOn", "Evidence"},
    {"Education", "covers", "Drug"},
    {"Education", "coversIndication", "Indication"},
    {"Drug", "hasToxicology", "Toxicology"},
    {"Toxicology", "hasFinding", "Finding"},
    {"Symptom", "indicates", "Finding"},
    {"Indication", "hasSymptom", "Symptom"},
    {"Lab Test", "measures", "Finding"},
    {"Procedure", "hasRisk", "Risk"},
    {"Drug Class", "treatsIndication", "Indication"},
};

constexpr const char* kDrugPrefixes[] = {
    "ac", "be", "cor", "dal", "ex",  "flu", "gan", "hep", "ib",  "jan",
    "kel", "lor", "met", "nor", "oc", "pra", "quin", "rov", "sel", "tam",
};

constexpr const char* kDrugSuffixes[] = {
    "zolamide", "virine", "mabrex", "priltan", "ololine",
    "statinol", "cillinex", "micinor", "sartanil", "prazolum",
};

// Introduces a deterministic single-character typo.
std::string Typo(const std::string& s, Rng* rng) {
  if (s.size() < 4) return s;
  std::string out = s;
  size_t pos = 1 + rng->UniformU64(out.size() - 2);
  if (out[pos] == ' ') pos = 1;
  switch (rng->UniformU64(3)) {
    case 0:  // substitution
      out[pos] = static_cast<char>('a' + rng->UniformU64(26));
      break;
    case 1:  // deletion
      out.erase(pos, 1);
      break;
    default:  // transposition with the next character
      if (pos + 1 < out.size() && out[pos + 1] != ' ') {
        std::swap(out[pos], out[pos + 1]);
      }
      break;
  }
  return out;
}

}  // namespace

Result<DomainOntology> BuildMedOntology() {
  DomainOntology onto;
  for (const char* name : kMedConcepts) {
    MEDRELAX_RETURN_NOT_OK(onto.AddConcept(name).status());
  }
  for (const RelRow& row : kMedRelationships) {
    OntologyConceptId domain = onto.FindConcept(row.domain);
    OntologyConceptId range = onto.FindConcept(row.range);
    MEDRELAX_RETURN_NOT_OK(
        onto.AddRelationship(row.name, domain, range).status());
  }
  // TBox subsumption of Example 3: Risk's descendants.
  OntologyConceptId risk = onto.FindConcept("Risk");
  MEDRELAX_RETURN_NOT_OK(
      onto.AddSubConcept(onto.FindConcept("Black Box Warning"), risk));
  MEDRELAX_RETURN_NOT_OK(
      onto.AddSubConcept(onto.FindConcept("Adverse Effect"), risk));
  MEDRELAX_RETURN_NOT_OK(
      onto.AddSubConcept(onto.FindConcept("Contra Indication"), risk));
  return onto;
}

Result<GeneratedWorld> GenerateWorld(const SnomedGeneratorOptions& eks_options,
                                     const KbGeneratorOptions& kb_options) {
  GeneratedWorld world;
  MEDRELAX_ASSIGN_OR_RETURN(world.eks, GenerateSnomedLike(eks_options));
  MEDRELAX_ASSIGN_OR_RETURN(world.kb.ontology, BuildMedOntology());
  world.contexts = ContextRegistry::FromOntology(world.kb.ontology);
  world.ctx_indication =
      world.contexts.FindByLabel("Indication-hasFinding-Finding");
  world.ctx_risk = world.contexts.FindByLabel("Risk-hasFinding-Finding");
  world.onto_drug = world.kb.ontology.FindConcept("Drug");
  world.onto_finding = world.kb.ontology.FindConcept("Finding");
  world.onto_indication = world.kb.ontology.FindConcept("Indication");
  world.onto_risk = world.kb.ontology.FindConcept("Risk");

  Rng rng(kb_options.seed);
  const ConceptDag& dag = world.eks.dag;

  // --- Context-participation ground truth. ---
  // Site subtrees alternate between treat-heavy and risk-heavy profiles so
  // context carries real signal; per-concept sampling follows the direct
  // parent's bias with noise. Propagating from parents keeps neighborhoods
  // coherent (a "hypothermia" sibling can flip to the other context).
  world.participation.assign(dag.num_concepts(), 0);
  // Every top-of-region node: both contexts possible.
  world.participation[world.eks.finding_root] =
      kParticipatesTreat | kParticipatesRisk;
  // Walk in id order — the generator allocates parents before children, so
  // a concept's first (tree) parent is already assigned when we reach it.
  for (ConceptId id : world.eks.finding_concepts) {
    if (world.eks.depth[id] == 2) {
      // Site-disorder roots: half lean a single way so entire subtrees
      // carry a context bias (the signal context-aware QR exploits).
      if (rng.Bernoulli(0.5)) {
        world.participation[id] =
            rng.Bernoulli(0.5) ? kParticipatesTreat : kParticipatesRisk;
      } else {
        world.participation[id] = kParticipatesTreat | kParticipatesRisk;
      }
      continue;
    }
    ConceptId parent = world.eks.finding_root;
    std::vector<ConceptId> native = dag.NativeParents(id);
    if (!native.empty()) parent = native.front();
    uint8_t inherited = world.participation[parent];
    uint8_t mask = 0;
    double keep = 0.85;
    if (inherited & kParticipatesTreat) {
      if (rng.Bernoulli(keep)) mask |= kParticipatesTreat;
    } else if (rng.Bernoulli(0.10)) {
      mask |= kParticipatesTreat;
    }
    if (inherited & kParticipatesRisk) {
      if (rng.Bernoulli(keep)) mask |= kParticipatesRisk;
    } else if (rng.Bernoulli(0.10)) {
      mask |= kParticipatesRisk;
    }
    if (mask == 0) {
      mask = rng.Bernoulli(0.5) ? kParticipatesTreat : kParticipatesRisk;
    }
    world.participation[id] = mask;
  }

  // --- Drug instances. ---
  for (size_t d = 0; d < kb_options.num_drugs; ++d) {
    std::string name = StrFormat(
        "%s%s", kDrugPrefixes[d % std::size(kDrugPrefixes)],
        kDrugSuffixes[(d / std::size(kDrugPrefixes)) % std::size(kDrugSuffixes)]);
    if (d >= std::size(kDrugPrefixes) * std::size(kDrugSuffixes)) {
      name += StrFormat(" %zu", d);
    }
    MEDRELAX_ASSIGN_OR_RETURN(
        InstanceId id, world.kb.instances.AddInstance(name, world.onto_drug));
    world.drug_instances.push_back(id);
  }

  // --- Finding instances, sampled popularity-weighted from the region. ---
  std::vector<ConceptId> region = world.eks.finding_concepts;
  std::vector<double> weights;
  weights.reserve(region.size());
  for (ConceptId id : region) weights.push_back(world.eks.popularity[id]);
  size_t to_sample = std::min(kb_options.num_findings, region.size());
  for (size_t n = 0; n < to_sample; ++n) {
    size_t pick = rng.WeightedIndex(weights);
    ConceptId concept_id = region[pick];
    weights[pick] = 0.0;  // sample without replacement
    std::string surface = dag.name(concept_id);
    if (rng.Bernoulli(kb_options.name_noise_rate)) {
      const StringTableView syns = dag.synonyms(concept_id);
      if (!syns.empty() && rng.Bernoulli(0.5)) {
        surface = syns[rng.UniformU64(syns.size())];
      } else {
        surface = Typo(surface, &rng);
      }
    }
    Result<InstanceId> made =
        world.kb.instances.AddInstance(surface, world.onto_finding);
    if (!made.ok()) continue;  // rare normalized-name collision: skip
    world.finding_instances.push_back(*made);
    world.true_link[*made] = concept_id;
    world.kb_finding_concepts.push_back(concept_id);
  }

  // --- Drug-finding links honoring participation truth. ---
  // Site of a finding: its depth-2 ancestor ("disorder of <site>"), used
  // to give each drug a therapeutic area.
  auto site_of = [&](ConceptId c) {
    ConceptId cur = c;
    while (world.eks.depth[cur] > 2) {
      std::vector<ConceptId> parents = dag.NativeParents(cur);
      if (parents.empty()) break;
      cur = parents.front();
    }
    return cur;
  };
  std::vector<InstanceId> treatable;
  std::vector<InstanceId> riskable;
  std::unordered_map<ConceptId, std::vector<InstanceId>> treatable_by_site;
  std::unordered_map<ConceptId, std::vector<InstanceId>> riskable_by_site;
  for (InstanceId f : world.finding_instances) {
    ConceptId concept_id = world.true_link[f];
    uint8_t mask = world.participation[concept_id];
    ConceptId site = site_of(concept_id);
    if (mask & kParticipatesTreat) {
      treatable.push_back(f);
      treatable_by_site[site].push_back(f);
    }
    if (mask & kParticipatesRisk) {
      riskable.push_back(f);
      riskable_by_site[site].push_back(f);
    }
  }
  RelationshipId rel_treat = kInvalidRelationship;
  RelationshipId rel_cause = kInvalidRelationship;
  RelationshipId rel_ind_has = kInvalidRelationship;
  RelationshipId rel_risk_has = kInvalidRelationship;
  for (RelationshipId r = 0; r < world.kb.ontology.num_relationships(); ++r) {
    const Relationship& rel = world.kb.ontology.relationship(r);
    const std::string& dn = world.kb.ontology.concept_name(rel.domain);
    if (rel.name == "treat" && dn == "Drug") rel_treat = r;
    if (rel.name == "cause" && dn == "Drug") rel_cause = r;
    if (rel.name == "hasFinding" && dn == "Indication") rel_ind_has = r;
    if (rel.name == "hasFinding" && dn == "Risk") rel_risk_has = r;
  }

  size_t link_serial = 0;
  for (InstanceId drug : world.drug_instances) {
    // The drug's primary therapeutic area: the site of a random treatable
    // finding (falls back to pure global sampling when focus is 0).
    ConceptId focus_site = kInvalidConcept;
    if (!treatable.empty()) {
      focus_site = site_of(
          world.true_link[treatable[rng.UniformU64(treatable.size())]]);
    }
    auto link = [&](const std::vector<InstanceId>& pool,
                    const std::unordered_map<ConceptId,
                                             std::vector<InstanceId>>&
                        by_site,
                    size_t count, RelationshipId top_rel,
                    RelationshipId has_rel, OntologyConceptId mid_concept,
                    std::unordered_map<InstanceId, std::vector<InstanceId>>*
                        truth) -> Status {
      auto focus_it = by_site.find(focus_site);
      const std::vector<InstanceId>* focus_pool =
          focus_it == by_site.end() ? nullptr : &focus_it->second;
      for (size_t i = 0; i < count && !pool.empty(); ++i) {
        const std::vector<InstanceId>& draw_pool =
            (focus_pool != nullptr && !focus_pool->empty() &&
             rng.Bernoulli(kb_options.site_focus))
                ? *focus_pool
                : pool;
        InstanceId finding = draw_pool[rng.UniformU64(draw_pool.size())];
        std::vector<InstanceId>& already = (*truth)[drug];
        if (std::find(already.begin(), already.end(), finding) !=
            already.end()) {
          continue;
        }
        MEDRELAX_ASSIGN_OR_RETURN(
            InstanceId mid,
            world.kb.instances.AddInstance(
                StrFormat("link %zu", link_serial++), mid_concept));
        MEDRELAX_RETURN_NOT_OK(world.kb.triples.AddTriple(drug, top_rel, mid));
        MEDRELAX_RETURN_NOT_OK(
            world.kb.triples.AddTriple(mid, has_rel, finding));
        already.push_back(finding);
      }
      return Status::OK();
    };
    MEDRELAX_RETURN_NOT_OK(link(treatable, treatable_by_site,
                                kb_options.treats_per_drug, rel_treat,
                                rel_ind_has, world.onto_indication,
                                &world.treats));
    MEDRELAX_RETURN_NOT_OK(link(riskable, riskable_by_site,
                                kb_options.causes_per_drug, rel_cause,
                                rel_risk_has, world.onto_risk,
                                &world.causes));
  }

  return world;
}

}  // namespace medrelax
