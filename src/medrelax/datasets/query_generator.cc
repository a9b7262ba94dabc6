#include "medrelax/datasets/query_generator.h"

#include <algorithm>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {

namespace {

std::string ApplyTypo(const std::string& s, Rng* rng) {
  if (s.size() < 4) return s;
  std::string out = s;
  size_t edits = 1 + rng->UniformU64(2);
  for (size_t e = 0; e < edits; ++e) {
    size_t pos = 1 + rng->UniformU64(out.size() - 2);
    if (out[pos] == ' ') continue;
    switch (rng->UniformU64(3)) {
      case 0:
        out[pos] = static_cast<char>('a' + rng->UniformU64(26));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      default:
        if (pos + 1 < out.size() && out[pos + 1] != ' ') {
          std::swap(out[pos], out[pos + 1]);
        }
        break;
    }
  }
  return out;
}

std::string ReorderTokens(const std::string& s, Rng* rng) {
  std::vector<std::string> tokens = Tokenize(NormalizeTerm(s));
  if (tokens.size() < 2) return s;
  rng->Shuffle(&tokens);
  return Join(tokens, " ");
}

std::string DropToken(const std::string& s, Rng* rng) {
  std::vector<std::string> tokens = Tokenize(NormalizeTerm(s));
  if (tokens.size() < 3) return s;
  tokens.erase(tokens.begin() +
               static_cast<long>(rng->UniformU64(tokens.size())));
  return Join(tokens, " ");
}

// Popularity-weighted sample without replacement from the finding region.
std::vector<ConceptId> SampleFindingConcepts(const GeneratedEks& eks, size_t n,
                                             Rng* rng) {
  std::vector<ConceptId> region = eks.finding_concepts;
  std::vector<double> weights;
  weights.reserve(region.size());
  for (ConceptId id : region) weights.push_back(eks.popularity[id]);
  std::vector<ConceptId> out;
  for (size_t i = 0; i < n && i < region.size(); ++i) {
    size_t pick = rng->WeightedIndex(weights);
    out.push_back(region[pick]);
    weights[pick] = 0.0;
  }
  return out;
}

}  // namespace

std::vector<MappingQuery> GenerateMappingQueries(
    const GeneratedEks& eks, const MappingWorkloadOptions& options) {
  Rng rng(options.seed);
  std::vector<MappingQuery> out;
  std::vector<ConceptId> concepts =
      SampleFindingConcepts(eks, options.num_queries, &rng);
  std::vector<double> mix = {options.p_exact, options.p_synonym,
                             options.p_typo, options.p_reorder,
                             options.p_drop};
  for (ConceptId gold : concepts) {
    MappingQuery q;
    q.gold = gold;
    SurfaceNoise noise = static_cast<SurfaceNoise>(rng.WeightedIndex(mix));
    const std::string& name = eks.dag.name(gold);
    switch (noise) {
      case SurfaceNoise::kExactName:
        q.surface = name;
        break;
      case SurfaceNoise::kSynonym: {
        const StringTableView syns = eks.dag.synonyms(gold);
        if (syns.empty()) {
          noise = SurfaceNoise::kExactName;
          q.surface = name;
        } else {
          q.surface = syns[rng.UniformU64(syns.size())];
        }
        break;
      }
      case SurfaceNoise::kTypo:
        q.surface = ApplyTypo(name, &rng);
        break;
      case SurfaceNoise::kReorder:
        q.surface = ReorderTokens(name, &rng);
        break;
      case SurfaceNoise::kDropToken:
        q.surface = DropToken(name, &rng);
        break;
    }
    q.noise = noise;
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<RelaxationQuery> GenerateRelaxationQueries(
    const GeneratedWorld& world, const RelaxationWorkloadOptions& options) {
  Rng rng(options.seed);
  std::vector<RelaxationQuery> out;

  std::vector<bool> in_kb(world.eks.dag.num_concepts(), false);
  for (ConceptId id : world.kb_finding_concepts) in_kb[id] = true;

  // Oversample, then filter to the requested in-KB/out-of-KB mix.
  std::vector<ConceptId> pool = SampleFindingConcepts(
      world.eks, world.eks.finding_concepts.size(), &rng);
  size_t want_out =
      static_cast<size_t>(options.out_of_kb_fraction *
                          static_cast<double>(options.num_queries));
  size_t want_in = options.num_queries - want_out;
  for (ConceptId id : pool) {
    if (out.size() >= options.num_queries) break;
    bool is_in = in_kb[id];
    if (is_in && want_in == 0) continue;
    if (!is_in && want_out == 0) continue;
    uint8_t mask = world.participation[id];
    if (mask == 0) continue;
    RelaxationQuery q;
    q.concept_id = id;
    bool treat_ok = (mask & kParticipatesTreat) != 0;
    bool risk_ok = (mask & kParticipatesRisk) != 0;
    if (treat_ok && risk_ok) {
      q.context = rng.Bernoulli(0.5) ? world.ctx_indication : world.ctx_risk;
    } else {
      q.context = treat_ok ? world.ctx_indication : world.ctx_risk;
    }
    q.surface = world.eks.dag.name(id);
    out.push_back(std::move(q));
    if (is_in) {
      --want_in;
    } else {
      --want_out;
    }
  }
  return out;
}

std::vector<NlQuestion> GenerateNlQuestions(const GeneratedWorld& world,
                                            const NlWorkloadOptions& options) {
  Rng rng(options.seed);
  std::vector<NlQuestion> out;

  constexpr const char* kTreatTemplates[] = {
      "what drugs treat %s",
      "which drugs are used to treat %s",
      "what medication helps with %s",
      "how do you treat %s",
      "give me treatments for %s",
  };
  constexpr const char* kRiskTemplates[] = {
      "what drugs cause %s",
      "which drugs have the risk of causing %s",
      "what medication can lead to %s",
      "which drugs list %s as a side effect",
      "what can cause %s as an adverse effect",
  };

  std::vector<bool> in_kb(world.eks.dag.num_concepts(), false);
  for (ConceptId id : world.kb_finding_concepts) in_kb[id] = true;

  std::vector<ConceptId> pool = SampleFindingConcepts(
      world.eks, world.eks.finding_concepts.size(), &rng);
  size_t out_of_kb = 0;
  for (ConceptId id : pool) {
    if (out.size() >= options.num_questions) break;
    uint8_t mask = world.participation[id];
    if (mask == 0) continue;
    if (!in_kb[id]) {
      // T1 sticks to the given (in-KB) concepts; free-form users wander
      // off the KB for up to a quarter of their questions.
      if (!options.free_form) continue;
      if (out_of_kb * 4 >= options.num_questions) continue;
      ++out_of_kb;
    }

    NlQuestion q;
    q.concept_id = id;
    bool treat_ok = (mask & kParticipatesTreat) != 0;
    bool use_treat = treat_ok && (!(mask & kParticipatesRisk) ||
                                  rng.Bernoulli(0.5));
    q.context = use_treat ? world.ctx_indication : world.ctx_risk;

    // Users phrase conditions colloquially in both tasks (Section 7.2's
    // participants "come up with" the questions; nobody types canonical
    // SNOMED names).
    q.term_surface = world.eks.dag.name(id);
    const StringTableView syns = world.eks.dag.synonyms(id);
    if (!syns.empty() && rng.Bernoulli(options.colloquial_synonym)) {
      q.term_surface = syns[rng.UniformU64(syns.size())];
    } else if (rng.Bernoulli(options.colloquial_typo)) {
      q.term_surface = ApplyTypo(q.term_surface, &rng);
    }

    const char* tpl =
        use_treat
            ? kTreatTemplates[rng.UniformU64(std::size(kTreatTemplates))]
            : kRiskTemplates[rng.UniformU64(std::size(kRiskTemplates))];
    q.text = StrFormat(tpl, q.term_surface.c_str());
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace medrelax
