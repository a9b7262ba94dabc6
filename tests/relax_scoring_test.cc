// Bit-identity property test of the relaxer's scoring and ranking
// (Algorithm 2 lines 3-8) against the naive path: every candidate scored
// with Equation 5 from its per-pair geometry (SimilarityModel::Geometry,
// four whole-graph traversals, no GeometryEngine), with std::pow for the
// Equation 4 penalty (no power table) and the query's IC read per
// candidate; then sorted and truncated at exactly k instances. The worlds
// are random DAGs with a deep native chain, whose far
// candidates have Equation 4 exponents past the power table; flags and
// instance counts (zero included) are random; one context has mostly
// zero raw frequencies. Every option set, context (kNoContext included),
// k in {1, 4, 100000} and both a fixed and a dynamic radius are swept,
// and scores and instance lists are compared with EXPECT_EQ.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"
#include "medrelax/relax/similarity.h"

namespace medrelax {
namespace {

constexpr size_t kRandomConcepts = 48;
constexpr size_t kChainLength = 36;
constexpr size_t kNumContexts = 3;
/// Context whose raw frequencies are mostly zero.
constexpr ContextId kSparseContext = 2;

struct ScoringWorld {
  ConceptDag dag;
  IngestionResult ingestion;
  /// Naive per-pair geometry of every (from, to), row-major.
  std::vector<PairGeometry> geometry;
};

// Random rooted DAG (1-3 parents of smaller index each) with a native
// chain of kChainLength concepts
// under a random concept; about a third of the concepts flagged, each
// with 0-3 instances.
ScoringWorld MakeScoringWorld(uint64_t seed) {
  ScoringWorld w;
  ConceptDagBuilder dag;
  Rng rng(seed);
  auto add = [&] {
    return *dag.AddConcept(StrFormat("c%zu", dag.num_concepts()));
  };
  for (size_t i = 0; i < kRandomConcepts; ++i) add();
  for (ConceptId i = 1; i < kRandomConcepts; ++i) {
    const size_t parents = 1 + rng.UniformU64(3);
    for (size_t p = 0; p < parents; ++p) {
      (void)dag.AddSubsumption(i, static_cast<ConceptId>(rng.UniformU64(i)));
    }
  }
  ConceptId below = static_cast<ConceptId>(rng.UniformU64(kRandomConcepts));
  for (size_t i = 0; i < kChainLength; ++i) {
    const ConceptId link = add();
    EXPECT_TRUE(dag.AddSubsumption(link, below).ok());
    below = link;
  }
  w.dag = std::move(dag).Build();
  const size_t n = w.dag.num_concepts();

  IngestionResult& ingestion = w.ingestion;
  ingestion.frequencies = FrequencyModel(n, kNumContexts);
  for (ConceptId id = 0; id < n; ++id) {
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
      double raw = 1.0 + static_cast<double>(rng.UniformU64(100));
      if (ctx == kSparseContext && rng.UniformU64(4) != 0) raw = 0.0;
      if (id == 0) raw = 1e6;
      ingestion.frequencies.SetRaw(id, ctx, raw);
    }
  }
  ingestion.frequencies.Normalize(0);

  ingestion.flagged.assign(n, false);
  std::vector<std::vector<InstanceId>> instances(n);
  InstanceId next_instance = 0;
  for (ConceptId id = 0; id < n; ++id) {
    if (rng.UniformU64(3) != 0) continue;
    ingestion.flagged[id] = true;
    const size_t count = rng.UniformU64(4);
    for (size_t i = 0; i < count; ++i) instances[id].push_back(next_instance++);
  }
  // The chain's tip and a concept near its top, so far candidates exist.
  ingestion.flagged[n - 1] = true;
  ingestion.flagged[n - kChainLength + 2] = true;
  instances[n - kChainLength + 2].push_back(next_instance++);
  ingestion.concept_instances = ConceptCsr::FromGroups(instances);

  const SimilarityModel naive(&w.dag, &ingestion.frequencies,
                              SimilarityOptions{});
  w.geometry.reserve(n * n);
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId b = 0; b < n; ++b) {
      w.geometry.push_back(naive.Geometry(a, b));
    }
  }
  return w;
}

/// Equation 5 on the naive geometry, with std::pow and the query's IC
/// read per candidate: p * 2 * IC(lcs) / (IC(q) + IC(b)).
double NaiveScore(const ScoringWorld& w, const SimilarityModel& model,
                  ConceptId q, ConceptId b, ContextId ctx) {
  if (q == b) return 1.0;
  const PairGeometry& g = w.geometry[q * w.dag.num_concepts() + b];
  if (!g.connected || g.lcs.empty()) return 0.0;
  const SimilarityOptions& o = model.options();
  const double penalty =
      o.use_path_penalty
          ? std::pow(o.generalization_weight, g.gen_exponent) *
                std::pow(o.specialization_weight, g.spec_exponent)
          : 1.0;
  double lcs_ic = 0.0;
  for (ConceptId c : g.lcs) lcs_ic += model.Ic(c, ctx);
  lcs_ic /= static_cast<double>(g.lcs.size());
  const double denom = model.Ic(q, ctx) + model.Ic(b, ctx);
  if (denom <= 1e-12) return 0.0;
  return penalty * 2.0 * lcs_ic / denom;
}

/// Algorithm 2 on the whole DAG with naive scoring.
RelaxationOutcome NaiveRelax(const ScoringWorld& w,
                             const SimilarityModel& model,
                             const RelaxationOptions& options,
                             const std::vector<Neighbor>& ball,
                             ConceptId query, ContextId context, size_t k) {
  const IngestionResult& ing = w.ingestion;
  RelaxationOutcome outcome;
  std::vector<ConceptId> candidates;
  size_t covered = 0;
  auto consider = [&](ConceptId id) {
    if (!ing.flagged[id]) return;
    candidates.push_back(id);
    covered += ing.concept_instances[id].size();
  };
  consider(query);
  uint32_t radius = options.radius;
  size_t consumed = 0;
  for (;;) {
    for (; consumed < ball.size() && ball[consumed].hops <= radius;
         ++consumed) {
      consider(ball[consumed].id);
    }
    if (!options.dynamic_radius || covered >= k ||
        radius >= options.max_radius) {
      break;
    }
    ++radius;
  }
  outcome.effective_radius = radius;
  outcome.stats.candidates_scanned = candidates.size();

  std::vector<ScoredConcept> scored;
  for (ConceptId b : candidates) {
    const std::span<const InstanceId> of = ing.concept_instances[b];
    scored.push_back({b, NaiveScore(w, model, query, b, context),
                      std::vector<InstanceId>(of.begin(), of.end())});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredConcept& a, const ScoredConcept& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.concept_id < b.concept_id;
            });
  for (ScoredConcept& sc : scored) {
    if (outcome.instances.size() >= k) break;
    for (InstanceId i : sc.instances) {
      if (outcome.instances.size() >= k) break;
      outcome.instances.push_back(i);
    }
    outcome.concepts.push_back(std::move(sc));
  }
  return outcome;
}

struct OptionSet {
  const char* name;
  SimilarityOptions similarity;
};

std::vector<OptionSet> OptionSets() {
  std::vector<OptionSet> sets;
  SimilarityOptions both_below_one;
  both_below_one.generalization_weight = 0.9;
  both_below_one.specialization_weight = 0.7;
  sets.push_back({"w<1", both_below_one});
  SimilarityOptions spec_one;  // the paper's setting: w_spec = 1
  sets.push_back({"w_spec=1", spec_one});
  SimilarityOptions no_penalty = both_below_one;
  no_penalty.use_path_penalty = false;
  sets.push_back({"no penalty", no_penalty});
  SimilarityOptions no_context = both_below_one;
  no_context.use_context = false;
  sets.push_back({"no context", no_context});
  return sets;
}

std::vector<RelaxationOptions> RadiusSettings() {
  RelaxationOptions fixed;
  fixed.radius = 3;
  fixed.dynamic_radius = false;
  RelaxationOptions dynamic;
  dynamic.radius = 1;
  dynamic.dynamic_radius = true;
  dynamic.max_radius = static_cast<uint32_t>(kChainLength + 4);
  return {fixed, dynamic};
}

class RelaxScoringSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelaxScoringSweep, RelaxerMatchesNaiveScoringBitForBit) {
  const ScoringWorld w = MakeScoringWorld(GetParam());
  const auto n = static_cast<ConceptId>(w.dag.num_concepts());
  const std::vector<ContextId> contexts = {kNoContext, 0, 1, kSparseContext};
  const std::vector<size_t> ks = {1, 4, 100000};
  size_t far_candidates = 0;
  for (const OptionSet& set : OptionSets()) {
    for (const RelaxationOptions& options : RadiusSettings()) {
      const QueryRelaxer relaxer(&w.dag, &w.ingestion, nullptr,
                                 set.similarity, options);
      for (ConceptId query = 0; query < n; ++query) {
        const std::vector<Neighbor> ball =
            NeighborsWithinRadius(w.dag, query, options.max_radius);
        for (ContextId context : contexts) {
          for (size_t k : ks) {
            const RelaxationOutcome want =
                NaiveRelax(w, relaxer.similarity(), options, ball, query,
                           context, k);
            const RelaxationOutcome got =
                relaxer.RelaxConceptWithK(query, context, k);
            const std::string where = StrFormat(
                "%s radius %u%s query %u context %d k %zu", set.name,
                options.radius, options.dynamic_radius ? " dynamic" : "",
                query, static_cast<int>(context), k);
            ASSERT_EQ(got.effective_radius, want.effective_radius) << where;
            ASSERT_EQ(got.stats.candidates_scanned,
                      want.stats.candidates_scanned)
                << where;
            ASSERT_EQ(got.concepts.size(), want.concepts.size()) << where;
            for (size_t i = 0; i < want.concepts.size(); ++i) {
              const ScoredConcept& g = got.concepts[i];
              const ScoredConcept& e = want.concepts[i];
              EXPECT_EQ(g.concept_id, e.concept_id) << where << " rank " << i;
              EXPECT_EQ(g.similarity, e.similarity) << where << " rank " << i;
              EXPECT_EQ(g.instances, e.instances) << where << " rank " << i;
              const PairGeometry& geometry =
                  w.geometry[query * n + e.concept_id];
              if (std::max(geometry.gen_exponent, geometry.spec_exponent) >=
                  static_cast<double>(SimilarityModel::kPowerTableSize)) {
                ++far_candidates;
              }
            }
            EXPECT_EQ(got.instances, want.instances) << where;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  // The chain puts candidates past the power table, so the std::pow
  // fallback is compared too.
  EXPECT_GT(far_candidates, 0u);
}

TEST_P(RelaxScoringSweep, SimilarityMatchesNaiveScoringBitForBit) {
  const ScoringWorld w = MakeScoringWorld(GetParam());
  const auto n = static_cast<ConceptId>(w.dag.num_concepts());
  for (const OptionSet& set : OptionSets()) {
    const SimilarityModel model(&w.dag, &w.ingestion.frequencies,
                                set.similarity);
    for (ContextId context : {kNoContext, ContextId{0}, kSparseContext}) {
      for (ConceptId a = 0; a < n; ++a) {
        for (ConceptId b = 0; b < n; ++b) {
          ASSERT_EQ(model.Similarity(a, b, context),
                    NaiveScore(w, model, a, b, context))
              << set.name << " " << a << " -> " << b << " context "
              << static_cast<int>(context);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelaxScoringSweep,
                         ::testing::Values(3u, 11u, 29u));

}  // namespace
}  // namespace medrelax
