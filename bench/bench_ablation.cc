// Ablation benches for the design choices DESIGN.md calls out:
//
//   1. generalization weight w_gen sweep (the paper fixes 0.9 empirically;
//      the sweep shows the quality curve and where 0.9 sits);
//   2. learned weights via logistic regression vs the fixed 0.9/1.0;
//   3. radius policy: fixed r vs dynamic growth;
//   4. tf-idf adjustment of raw mention counts on/off;
//   5. shortcut edges on/off at small radius (a semantics-invariance
//      check: shortcuts carry original distances, so quality must match).
//      The served DAG holds native edges only; the row computes the
//      shortcut list of Algorithm 1 lines 19-23 and checks that every
//      edge spans exactly its native distance, which makes the two arms
//      one evaluation.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "medrelax/common/random.h"
#include "medrelax/eval/relaxation_eval.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/relax/feedback.h"
#include "medrelax/relax/weight_learner.h"

using namespace medrelax;         // NOLINT — bench brevity
using namespace medrelax::bench;  // NOLINT

namespace {

Table2Row RunConfig(const StandardWorld& s,
                    const std::vector<RelaxationQuery>& queries,
                    const GoldStandard& gold, const IngestionResult& ingestion,
                    const SimilarityOptions& sim,
                    const RelaxationOptions& relax, const char* name) {
  QueryRelaxer relaxer(&s.world.eks.dag, &ingestion, s.edit.get(), sim,
                       relax);
  return EvaluateRanker(name, MakeRelaxerRanker(&relaxer), queries, gold,
                        s.world.kb_finding_concepts, 10);
}

}  // namespace

int main() {
  std::printf("Building the standard world...\n");
  auto s = BuildStandardWorld();
  if (s == nullptr) return 1;
  GoldStandardOptions gold_opts;
  gold_opts.max_distance = 4;  // the SME relatedness ball on this world
  GoldStandard gold(&s->world, gold_opts);
  RelaxationWorkloadOptions workload;
  workload.num_queries = 100;
  std::vector<RelaxationQuery> queries =
      GenerateRelaxationQueries(s->world, workload);

  RelaxationOptions ropts;
  ropts.radius = 4;
  ropts.top_k = 10;

  // --- 1. w_gen sweep. ---
  std::printf("\nAblation 1: generalization weight sweep "
              "(w_spec = 1.0, radius 4, k = 10)\n");
  PrintRule(46);
  std::printf("%8s %9s %9s %9s\n", "w_gen", "P@10", "R@10", "F1");
  PrintRule(46);
  for (double w : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}) {
    SimilarityOptions sim;
    sim.generalization_weight = w;
    Table2Row row =
        RunConfig(*s, queries, gold, s->with_corpus, sim, ropts, "sweep");
    std::printf("%8.2f %9.2f %9.2f %9.2f%s\n", w, row.p_at_10, row.r_at_10,
                row.f1, w == 0.9 ? "   <- paper's setting" : "");
  }

  // --- 2. learned weights. ---
  std::printf("\nAblation 2: learned direction weights "
              "(logistic regression on gold-labeled pairs)\n");
  {
    Rng rng(77);
    std::vector<WeightExample> examples;
    const std::vector<ConceptId>& pool = s->world.kb_finding_concepts;
    for (const RelaxationQuery& q : queries) {
      for (int draw = 0; draw < 4; ++draw) {
        ConceptId candidate = pool[rng.UniformU64(pool.size())];
        examples.push_back({q.concept_id, candidate,
                            gold.IsRelevant(q.concept_id, q.context,
                                            candidate)});
      }
    }
    LearnedWeights learned = LearnDirectionWeights(
        s->world.eks.dag, examples, WeightLearnerOptions{});
    std::printf("  learned: w_gen = %.3f, w_spec = %.3f "
                "(train accuracy %.1f%%, %zu examples)\n",
                learned.generalization_weight, learned.specialization_weight,
                100.0 * learned.train_accuracy, learned.num_examples);
    SimilarityOptions sim;
    sim.generalization_weight = learned.generalization_weight;
    sim.specialization_weight = learned.specialization_weight;
    Table2Row row =
        RunConfig(*s, queries, gold, s->with_corpus, sim, ropts, "learned");
    SimilarityOptions fixed;
    Table2Row base =
        RunConfig(*s, queries, gold, s->with_corpus, fixed, ropts, "fixed");
    std::printf("  fixed 0.9/1.0: F1 = %.2f ; learned: F1 = %.2f\n", base.f1,
                row.f1);
  }

  // --- 3. radius policy. ---
  std::printf("\nAblation 3: radius policy (k = 10)\n");
  PrintRule(56);
  std::printf("%-22s %9s %9s %9s\n", "policy", "P@10", "R@10", "F1");
  PrintRule(56);
  for (uint32_t r : {1u, 2u, 4u, 8u}) {
    RelaxationOptions fixed = ropts;
    fixed.radius = r;
    fixed.dynamic_radius = false;
    Table2Row row = RunConfig(*s, queries, gold, s->with_corpus,
                              SimilarityOptions{}, fixed, "fixed");
    std::printf("fixed r=%-14u %9.2f %9.2f %9.2f\n", r, row.p_at_10,
                row.r_at_10, row.f1);
  }
  {
    RelaxationOptions dynamic = ropts;
    dynamic.radius = 1;
    dynamic.dynamic_radius = true;
    dynamic.max_radius = 16;
    Table2Row row = RunConfig(*s, queries, gold, s->with_corpus,
                              SimilarityOptions{}, dynamic, "dynamic");
    std::printf("%-22s %9.2f %9.2f %9.2f\n", "dynamic (grow from 1)",
                row.p_at_10, row.r_at_10, row.f1);
  }

  // --- 4. tf-idf on/off. ---
  std::printf("\nAblation 4: tf-idf adjustment of mention counts\n");
  {
    // Raw-count ingestion (a fresh run over the same DAG).
    IngestionOptions raw_opts;
    raw_opts.use_tfidf = false;
    Result<IngestionResult> raw = RunIngestion(
        s->world.kb, s->world.eks.dag, *s->edit, &s->corpus, raw_opts);
    if (raw.ok()) {
      Table2Row with_tfidf =
          RunConfig(*s, queries, gold, s->with_corpus, SimilarityOptions{},
                    ropts, "tfidf");
      Table2Row without = RunConfig(*s, queries, gold, *raw,
                                    SimilarityOptions{}, ropts, "raw");
      std::printf("  tf-idf on : F1 = %.2f\n", with_tfidf.f1);
      std::printf("  tf-idf off: F1 = %.2f\n", without.f1);
    }
  }

  // --- 5. shortcuts at small radius. ---
  std::printf("\nAblation 5: shortcut edges at radius 1 "
              "(invariance check: same quality either way, since shortcut "
              "edges keep original distances)\n");
  {
    // Neither the radius-1 ball nor any score changes with a shortcut that
    // spans exactly its native up-distance, so one evaluation over the
    // native DAG answers for both arms once every edge of the list does.
    const ConceptDag& dag = s->world.eks.dag;
    std::vector<ShortcutEdge> shortcuts =
        ShortcutEdges(dag, s->with_corpus.flagged);
    std::sort(shortcuts.begin(), shortcuts.end(),
              [](const ShortcutEdge& a, const ShortcutEdge& b) {
                return a.child < b.child;
              });
    std::vector<uint32_t> up;
    for (size_t i = 0; i < shortcuts.size(); ++i) {
      const ShortcutEdge& e = shortcuts[i];
      if (i == 0 || shortcuts[i - 1].child != e.child) {
        up = UpDistances(dag, e.child);
      }
      if (e.distance < 2 || up[e.ancestor] != e.distance) {
        std::fprintf(stderr,
                     "shortcut %u -> %u carries %u hops, native distance %u\n",
                     e.child, e.ancestor, e.distance, up[e.ancestor]);
        return 1;
      }
    }
    RelaxationOptions tight = ropts;
    tight.radius = 1;
    tight.dynamic_radius = false;
    Table2Row row = RunConfig(*s, queries, gold, s->with_corpus,
                              SimilarityOptions{}, tight, "native");
    std::printf("  shortcuts on : F1 = %.2f at radius 1\n", row.f1);
    std::printf("  shortcuts off: F1 = %.2f at radius 1\n", row.f1);
  }
  // --- 6. relevance feedback rounds (the paper's proposed improvement). ---
  std::printf("\nAblation 6: relevance feedback (oracle accepts/rejects the "
              "top 3 per round)\n");
  {
    QueryRelaxer base(&s->world.eks.dag, &s->with_corpus, s->edit.get(),
                      SimilarityOptions{}, ropts);
    FeedbackRelaxer feedback(&base, &s->world.eks.dag, FeedbackOptions{});
    for (int round = 1; round <= 4; ++round) {
      ConceptRanker ranker = [&](const RelaxationQuery& q) {
        RelaxationOutcome outcome =
            feedback.RelaxConcept(q.concept_id, q.context);
        std::vector<ConceptId> ranked;
        for (const ScoredConcept& sc : outcome.concepts) {
          ranked.push_back(sc.concept_id);
        }
        return ranked;
      };
      Table2Row row = EvaluateRanker("feedback", ranker, queries, gold,
                                     s->world.kb_finding_concepts, 10);
      std::printf("  round %d: P@10 = %.2f  R@10 = %.2f  F1 = %.2f\n", round,
                  row.p_at_10, row.r_at_10, row.f1);
      // Oracle feedback on the top 3 of every query.
      for (const RelaxationQuery& q : queries) {
        RelaxationOutcome outcome =
            feedback.RelaxConcept(q.concept_id, q.context);
        for (size_t i = 0; i < outcome.concepts.size() && i < 3; ++i) {
          ConceptId c = outcome.concepts[i].concept_id;
          if (gold.IsRelevant(q.concept_id, q.context, c)) {
            feedback.Accept(c, q.context);
          } else {
            feedback.Reject(c, q.context);
          }
        }
      }
    }
  }
  return 0;
}
