#include "medrelax/datasets/snomed_generator.h"

#include <algorithm>
#include <cmath>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"

namespace medrelax {

namespace {

struct SitePair {
  const char* noun;    // "kidney"
  const char* latin;   // "renal"
};

constexpr SitePair kSites[] = {
    {"kidney", "renal"},       {"lung", "pulmonary"},
    {"liver", "hepatic"},      {"heart", "cardiac"},
    {"skin", "cutaneous"},     {"stomach", "gastric"},
    {"brain", "cerebral"},     {"blood", "hematologic"},
    {"bone", "osseous"},       {"joint", "articular"},
    {"throat", "pharyngeal"},  {"bladder", "vesical"},
    {"ear", "otic"},           {"eye", "ocular"},
    {"colon", "colonic"},      {"nerve", "neural"},
    {"pancreas", "pancreatic"}, {"spleen", "splenic"},
};

constexpr const char* kConditions[] = {
    "inflammation", "infection",   "pain",        "degeneration",
    "obstruction",  "dilation",    "insufficiency", "failure",
    "tumor",        "ulcer",       "edema",       "bleeding",
    "stenosis",     "spasm",       "atrophy",     "hypertrophy",
    "fibrosis",     "necrosis",    "cyst",        "lesion",
};

constexpr const char* kQualifiers[] = {
    "acute",      "chronic",   "severe",      "mild",
    "recurrent",  "congenital", "idiopathic", "secondary",
    "progressive", "transient", "focal",      "diffuse",
};

constexpr const char* kCauses[] = {
    "due to infection", "due to hypertension", "due to diabetes",
    "due to trauma",    "due to medication",   "of unknown origin",
};

constexpr const char* kOtherCategories[] = {
    "procedure", "body structure", "substance", "organism", "event",
};

constexpr const char* kProcedureKinds[] = {
    "biopsy of", "excision of", "repair of", "imaging of", "examination of",
};

// What kind of refinement a pending node expects next.
enum class Stage : uint8_t { kSiteDisorder, kCondition, kQualifier, kCause,
                             kStageNumber, kLeaf };

struct Pending {
  ConceptId id;
  Stage stage;
  std::string site;        // noun form
  std::string base_name;   // name the children refine
};

}  // namespace

Result<GeneratedEks> GenerateSnomedLike(const SnomedGeneratorOptions& options) {
  if (options.num_concepts < 50) {
    return Status::InvalidArgument(
        "GenerateSnomedLike: need at least 50 concepts");
  }
  GeneratedEks out;
  ConceptDagBuilder out_dag;
  Rng rng(options.seed);

  auto add = [&](std::string name, ConceptId parent,
                 uint32_t parent_depth) -> Result<ConceptId> {
    // Enforce global uniqueness by suffixing a variant number on clash.
    Result<ConceptId> made = out_dag.AddConcept(name);
    int variant = 2;
    while (!made.ok()) {
      made = out_dag.AddConcept(StrFormat("%s type %d", name.c_str(), variant));
      ++variant;
      if (variant > 64) return made.status();
    }
    ConceptId id = *made;
    if (parent != kInvalidConcept) {
      MEDRELAX_RETURN_NOT_OK(out_dag.AddSubsumption(id, parent));
    }
    out.depth.push_back(parent == kInvalidConcept ? 0 : parent_depth + 1);
    return id;
  };

  MEDRELAX_ASSIGN_OR_RETURN(out.root, add("snomed ct concept",
                                          kInvalidConcept, 0));
  MEDRELAX_ASSIGN_OR_RETURN(out.finding_root,
                            add("clinical finding", out.root, 0));

  const size_t finding_budget = static_cast<size_t>(
      static_cast<double>(options.num_concepts) * options.finding_fraction);

  // --- Clinical-finding region: site disorders refined level by level. ---
  std::vector<Pending> frontier;
  for (const SitePair& site : kSites) {
    if (out_dag.num_concepts() >= finding_budget) break;
    MEDRELAX_ASSIGN_OR_RETURN(
        ConceptId id,
        add(StrFormat("disorder of %s", site.noun), out.finding_root, 1));
    MEDRELAX_RETURN_NOT_OK(
        out_dag.AddSynonym(id, StrFormat("%s disorder", site.latin)));
    frontier.push_back({id, Stage::kCondition, site.noun,
                        StrFormat("disorder of %s", site.noun)});
  }

  size_t head = 0;
  while (head < frontier.size() && out_dag.num_concepts() < finding_budget) {
    Pending node = frontier[head++];
    uint32_t node_depth = out.depth[node.id];
    switch (node.stage) {
      case Stage::kCondition: {
        // "infection of kidney", a random subset of condition kinds.
        size_t n = 3 + rng.UniformU64(6);
        std::vector<size_t> picks(std::size(kConditions));
        for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
        rng.Shuffle(&picks);
        for (size_t i = 0; i < n && i < picks.size(); ++i) {
          if (out_dag.num_concepts() >= finding_budget) break;
          std::string name =
              StrFormat("%s of %s", kConditions[picks[i]], node.site.c_str());
          MEDRELAX_ASSIGN_OR_RETURN(ConceptId id,
                                    add(name, node.id, node_depth));
          // Latinate synonym ("renal infection") — only for the primary
          // variant: "type N" duplicates would otherwise share the synonym
          // and make exact-name mapping ambiguous.
          if (out_dag.name(id) == name) {
            for (const SitePair& site : kSites) {
              if (node.site == site.noun) {
                MEDRELAX_RETURN_NOT_OK(out_dag.AddSynonym(
                    id,
                    StrFormat("%s %s", site.latin, kConditions[picks[i]])));
              }
            }
          }
          frontier.push_back({id, Stage::kQualifier, node.site, name});
        }
        break;
      }
      case Stage::kQualifier: {
        size_t n = 1 + rng.UniformU64(4);
        std::vector<size_t> picks(std::size(kQualifiers));
        for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
        rng.Shuffle(&picks);
        for (size_t i = 0; i < n && i < picks.size(); ++i) {
          if (out_dag.num_concepts() >= finding_budget) break;
          std::string name = StrFormat("%s %s", kQualifiers[picks[i]],
                                       node.base_name.c_str());
          MEDRELAX_ASSIGN_OR_RETURN(ConceptId id,
                                    add(name, node.id, node_depth));
          frontier.push_back({id, Stage::kCause, node.site, name});
        }
        break;
      }
      case Stage::kCause: {
        if (rng.Bernoulli(0.6)) {
          size_t n = 1 + rng.UniformU64(3);
          std::vector<size_t> picks(std::size(kCauses));
          for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
          rng.Shuffle(&picks);
          for (size_t i = 0; i < n && i < picks.size(); ++i) {
            if (out_dag.num_concepts() >= finding_budget) break;
            std::string name = StrFormat("%s %s", node.base_name.c_str(),
                                         kCauses[picks[i]]);
            MEDRELAX_ASSIGN_OR_RETURN(ConceptId id,
                                      add(name, node.id, node_depth));
            frontier.push_back({id, Stage::kStageNumber, node.site, name});
          }
        }
        break;
      }
      case Stage::kStageNumber: {
        if (rng.Bernoulli(0.4)) {
          size_t n = 1 + rng.UniformU64(4);
          for (size_t s = 1; s <= n; ++s) {
            if (out_dag.num_concepts() >= finding_budget) break;
            std::string name =
                StrFormat("%s stage %zu", node.base_name.c_str(), s);
            MEDRELAX_ASSIGN_OR_RETURN(ConceptId id,
                                      add(name, node.id, node_depth));
            (void)id;
          }
        }
        break;
      }
      case Stage::kSiteDisorder:
      case Stage::kLeaf:
        break;
    }
  }

  // Record the finding region.
  for (ConceptId id = out.finding_root + 1; id < out_dag.num_concepts();
       ++id) {
    out.finding_concepts.push_back(id);
  }

  // --- Other categories: shallow noise mass up to the full budget. ---
  std::vector<ConceptId> category_roots;
  for (const char* category : kOtherCategories) {
    if (out_dag.num_concepts() >= options.num_concepts) break;
    MEDRELAX_ASSIGN_OR_RETURN(ConceptId id, add(category, out.root, 0));
    category_roots.push_back(id);
  }
  size_t kind_index = 0;
  size_t site_index = 0;
  int serial = 1;
  while (out_dag.num_concepts() < options.num_concepts &&
         !category_roots.empty()) {
    ConceptId cat = category_roots[rng.UniformU64(category_roots.size())];
    const char* kind = kProcedureKinds[kind_index % std::size(kProcedureKinds)];
    const SitePair& site = kSites[site_index % std::size(kSites)];
    ++kind_index;
    if (kind_index % std::size(kProcedureKinds) == 0) ++site_index;
    std::string name = StrFormat("%s %s variant %d", kind, site.noun, serial++);
    MEDRELAX_ASSIGN_OR_RETURN(ConceptId id, add(name, cat, out.depth[cat]));
    (void)id;
  }

  // --- Polyhierarchy: second parents at strictly smaller depth within the
  // finding region (keeps the graph acyclic by construction). ---
  for (ConceptId id : out.finding_concepts) {
    if (!rng.Bernoulli(options.polyhierarchy_rate)) continue;
    // Sample a few times for a shallower node.
    for (int attempt = 0; attempt < 8; ++attempt) {
      ConceptId other = out.finding_concepts[rng.UniformU64(
          out.finding_concepts.size())];
      if (out.depth[other] < out.depth[id] && other != id) {
        // Ignore duplicate-edge failures: AddSubsumption refuses exact
        // duplicates, which is fine here.
        Status st = out_dag.AddSubsumption(id, other);
        (void)st;
        break;
      }
    }
  }

  // --- Synonyms: abbreviation-like and reordered variants. ---
  for (ConceptId id = 0; id < out_dag.num_concepts(); ++id) {
    uint64_t extra = rng.Poisson(options.synonym_mean);
    std::vector<std::string> parts = Split(out_dag.name(id), ' ');
    for (uint64_t s = 0; s < extra; ++s) {
      if (parts.size() >= 3 && s == 0) {
        // Head-swap variant: "kidney infection, acute".
        std::string syn = parts[parts.size() - 1];
        for (size_t i = 0; i + 1 < parts.size(); ++i) syn += " " + parts[i];
        MEDRELAX_RETURN_NOT_OK(out_dag.AddSynonym(id, syn));
      } else if (parts.size() >= 2) {
        // Initialism: "ck d s 1" style contractions are noisy on purpose.
        std::string syn;
        for (const std::string& p : parts) {
          if (!p.empty()) syn += p.substr(0, 1);
        }
        syn += StrFormat(" %u", id);  // disambiguate tiny initialisms
        MEDRELAX_RETURN_NOT_OK(out_dag.AddSynonym(id, syn));
      }
    }
  }

  out.dag = std::move(out_dag).Build();

  // --- Popularity: Zipf weights over a random permutation of concepts. ---
  out.popularity.assign(out.dag.num_concepts(), 0.0);
  std::vector<ConceptId> perm(out.dag.num_concepts());
  for (ConceptId id = 0; id < perm.size(); ++id) perm[id] = id;
  rng.Shuffle(&perm);
  for (size_t rank = 0; rank < perm.size(); ++rank) {
    out.popularity[perm[rank]] =
        1.0 / std::pow(static_cast<double>(rank + 1), options.popularity_zipf);
  }

  return out;
}

}  // namespace medrelax
