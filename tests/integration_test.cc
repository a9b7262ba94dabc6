// End-to-end integration: generate a full synthetic world, train the
// embedding stack, run Algorithm 1 against the generated corpus, and check
// that the full QR configuration beats its ablations on the generated
// workload — the Table 2 ordering in miniature.

#include <memory>

#include <gtest/gtest.h>

#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/query_generator.h"
#include "medrelax/eval/gold_standard.h"
#include "medrelax/eval/relaxation_eval.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {
namespace {

struct Pipeline {
  GeneratedWorld world;
  Corpus corpus;
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<EditDistanceMatcher> matcher;
  IngestionResult with_corpus;
  IngestionResult without_corpus;
};

std::unique_ptr<Pipeline> MakePipeline() {
  auto p = std::make_unique<Pipeline>();
  SnomedGeneratorOptions eks;
  eks.num_concepts = 800;
  eks.seed = 2020;
  KbGeneratorOptions kb;
  kb.num_drugs = 40;
  kb.num_findings = 250;  // dense coverage: the regime where ranking
                          // differences are measurable (see EXPERIMENTS.md)
  kb.seed = 2021;
  auto world = GenerateWorld(eks, kb);
  EXPECT_TRUE(world.ok()) << world.status();
  p->world = std::move(*world);
  p->corpus = GenerateMonographCorpus(p->world, CorpusGeneratorOptions{});

  p->index = std::make_unique<NameIndex>(&p->world.eks.dag);
  p->matcher = std::make_unique<EditDistanceMatcher>(p->index.get(),
                                                     EditMatcherOptions{});
  auto with = RunIngestion(p->world.kb, p->world.eks.dag, *p->matcher,
                           &p->corpus, IngestionOptions{});
  EXPECT_TRUE(with.ok()) << with.status();
  p->with_corpus = std::move(*with);

  // The QR-no-corpus configuration shares the DAG, which ingestion leaves
  // as it is.
  auto without = RunIngestion(p->world.kb, p->world.eks.dag, *p->matcher,
                              nullptr, IngestionOptions{});
  EXPECT_TRUE(without.ok());
  p->without_corpus = std::move(*without);
  return p;
}

TEST(Integration, IngestionMapsMostInstances) {
  auto p = MakePipeline();
  // Drugs and link instances never map (not in the external source), but
  // findings should map at a high rate (edit matcher handles the noise).
  size_t mapped_findings = 0;
  for (const auto& [instance, concept_id] : p->with_corpus.mappings) {
    (void)concept_id;
    if (p->world.true_link.count(instance) > 0) ++mapped_findings;
  }
  EXPECT_GT(mapped_findings, p->world.finding_instances.size() * 8 / 10);
}

TEST(Integration, MappingsMostlyAgreeWithGroundTruth) {
  auto p = MakePipeline();
  size_t correct = 0, total = 0;
  for (const auto& [instance, concept_id] : p->with_corpus.mappings) {
    auto it = p->world.true_link.find(instance);
    if (it == p->world.true_link.end()) continue;
    ++total;
    if (it->second == concept_id) ++correct;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.85);
}

TEST(Integration, ShortcutsAccelerateWithoutChangingScores) {
  auto p = MakePipeline();
  // Similarity between two flagged concepts must be identical whether or
  // not shortcut edges exist (they only change *reachability* at small
  // radii, never the similarity — Example 2's "semantic similarity ...
  // remains unchanged").
  SimilarityModel model(&p->world.eks.dag, &p->with_corpus.frequencies,
                        SimilarityOptions{});
  ASSERT_GE(p->world.kb_finding_concepts.size(), 2u);
  ConceptId a = p->world.kb_finding_concepts[0];
  ConceptId b = p->world.kb_finding_concepts[1];
  double sim_with = model.Similarity(a, b, p->world.ctx_indication);
  // Distances/paths/LCS use native edges, the only ones the DAG holds, so
  // this is the value without shortcuts by construction; sanity-check it
  // is a valid score.
  EXPECT_GE(sim_with, 0.0);
  EXPECT_LE(sim_with, 1.0 + 1e-9);
}

TEST(Integration, FullQrBeatsAblationsOnGeneratedWorkload) {
  auto p = MakePipeline();
  GoldStandardOptions gold_opts;
  gold_opts.max_distance = 4;
  GoldStandard gold(&p->world, gold_opts);
  RelaxationWorkloadOptions qopts;
  qopts.num_queries = 60;
  std::vector<RelaxationQuery> queries =
      GenerateRelaxationQueries(p->world, qopts);
  ASSERT_GE(queries.size(), 40u);

  RelaxationOptions ropts;
  ropts.radius = 4;
  ropts.top_k = 10;

  SimilarityOptions full;
  SimilarityOptions no_context;
  no_context.use_context = false;
  SimilarityOptions ic_only;
  ic_only.use_context = false;
  ic_only.use_path_penalty = false;

  QueryRelaxer qr(&p->world.eks.dag, &p->with_corpus, p->matcher.get(), full,
                  ropts);
  QueryRelaxer qr_no_ctx(&p->world.eks.dag, &p->with_corpus, p->matcher.get(),
                         no_context, ropts);
  QueryRelaxer qr_no_corpus(&p->world.eks.dag, &p->without_corpus,
                            p->matcher.get(), full, ropts);
  QueryRelaxer ic(&p->world.eks.dag, &p->with_corpus, p->matcher.get(),
                  ic_only, ropts);

  const std::vector<ConceptId>& pool = p->world.kb_finding_concepts;
  Table2Row r_full =
      EvaluateRanker("QR", MakeRelaxerRanker(&qr), queries, gold, pool, 10);
  Table2Row r_no_ctx = EvaluateRanker("QR-no-context",
                                      MakeRelaxerRanker(&qr_no_ctx), queries,
                                      gold, pool, 10);
  Table2Row r_no_corpus = EvaluateRanker("QR-no-corpus",
                                         MakeRelaxerRanker(&qr_no_corpus),
                                         queries, gold, pool, 10);
  Table2Row r_ic =
      EvaluateRanker("IC", MakeRelaxerRanker(&ic), queries, gold, pool, 10);

  // The paper's Table 2 ordering: QR > QR-no-context > IC, and QR beats
  // the corpus-free variant.
  EXPECT_GT(r_full.f1, r_no_ctx.f1);
  EXPECT_GT(r_full.f1, r_no_corpus.f1);
  EXPECT_GT(r_full.f1, r_ic.f1);
  EXPECT_GE(r_no_ctx.f1, r_ic.f1);
  // And the absolute level is meaningful, not degenerate.
  EXPECT_GT(r_full.f1, 40.0);
}

TEST(Integration, EndToEndTermRelaxationReturnsInstances) {
  auto p = MakePipeline();
  RelaxationOptions ropts;
  ropts.top_k = 10;
  QueryRelaxer qr(&p->world.eks.dag, &p->with_corpus, p->matcher.get(),
                  SimilarityOptions{}, ropts);
  // Pick an out-of-KB finding concept and relax its (typo'd) name.
  std::vector<bool> in_kb(p->world.eks.dag.num_concepts(), false);
  for (ConceptId c : p->world.kb_finding_concepts) in_kb[c] = true;
  for (ConceptId c : p->world.eks.finding_concepts) {
    if (in_kb[c]) continue;
    auto result =
        qr.Relax(p->world.eks.dag.name(c), p->world.ctx_indication);
    if (!result.ok()) continue;
    EXPECT_EQ(result->query_concept, c);
    if (!result->instances.empty()) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "no out-of-KB concept produced relaxed instances";
}

}  // namespace
}  // namespace medrelax
