// Concurrency tests of the online relaxation stack: one SimilarityModel /
// QueryRelaxer instance serving overlapping queries from many threads.
// Run under the tsan preset, these pin the thread-safety contract of a
// relaxer shared by plain threads, the way the serving event loops share
// one, and of the per-thread traversal scratch every relaxer on a thread
// shares.

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {
namespace {

struct ConcurrencyWorld {
  Figure5Fixture fx;
  KnowledgeBase kb;
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<ExactMatcher> matcher;
  IngestionResult ingestion;
};

ConcurrencyWorld MakeWorld() {
  ConcurrencyWorld w;
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  w.fx = std::move(*fx);
  auto onto = BuildFigure1Ontology();
  EXPECT_TRUE(onto.ok());
  w.kb.ontology = std::move(*onto);
  OntologyConceptId finding = w.kb.ontology.FindConcept("Finding");
  EXPECT_TRUE(w.kb.instances.AddInstance("kidney disease", finding).ok());
  EXPECT_TRUE(
      w.kb.instances.AddInstance("hypertensive renal disease", finding).ok());
  w.index = std::make_unique<NameIndex>(&w.fx.dag);
  w.matcher = std::make_unique<ExactMatcher>(w.index.get());
  auto ingestion =
      RunIngestion(w.kb, w.fx.dag, *w.matcher, nullptr, IngestionOptions{});
  EXPECT_TRUE(ingestion.ok());
  w.ingestion = std::move(*ingestion);
  return w;
}

// A generated world large enough for hubs, dynamic radius growth and
// dozens of distinct queries.
struct GeneratedRig {
  GeneratedWorld world;
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<ExactMatcher> matcher;
  IngestionResult ingestion;
};

std::unique_ptr<GeneratedRig> MakeGeneratedRig(size_t concepts,
                                               uint64_t seed) {
  auto rig = std::make_unique<GeneratedRig>();
  SnomedGeneratorOptions eks;
  eks.num_concepts = concepts;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = concepts / 10;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  EXPECT_TRUE(world.ok()) << world.status();
  rig->world = std::move(*world);
  rig->index = std::make_unique<NameIndex>(&rig->world.eks.dag);
  rig->matcher = std::make_unique<ExactMatcher>(rig->index.get());
  Result<IngestionResult> ingestion =
      RunIngestion(rig->world.kb, rig->world.eks.dag, *rig->matcher,
                   nullptr, IngestionOptions{});
  EXPECT_TRUE(ingestion.ok()) << ingestion.status();
  rig->ingestion = std::move(*ingestion);
  return rig;
}

// Bit-for-bit equality of two outcomes, traversal counters included.
void ExpectSameOutcome(const RelaxationOutcome& got,
                       const RelaxationOutcome& want, size_t index) {
  EXPECT_EQ(got.query_concept, want.query_concept) << "query " << index;
  EXPECT_EQ(got.effective_radius, want.effective_radius) << "query " << index;
  EXPECT_EQ(got.stats.neighbors_visited, want.stats.neighbors_visited)
      << "query " << index;
  EXPECT_EQ(got.stats.candidates_scanned, want.stats.candidates_scanned)
      << "query " << index;
  ASSERT_EQ(got.concepts.size(), want.concepts.size()) << "query " << index;
  for (size_t j = 0; j < want.concepts.size(); ++j) {
    EXPECT_EQ(got.concepts[j].concept_id, want.concepts[j].concept_id)
        << "query " << index << " rank " << j;
    EXPECT_EQ(got.concepts[j].similarity, want.concepts[j].similarity)
        << "query " << index << " rank " << j;
  }
  EXPECT_EQ(got.instances, want.instances) << "query " << index;
}

struct Query {
  ConceptId concept_id;
  ContextId context;
};

// Relaxes `queries` on `num_threads` plain threads sharing `relaxer`:
// thread t takes queries t, t + num_threads, ... Outcomes come back in
// input order.
std::vector<RelaxationOutcome> RelaxFromThreads(
    const QueryRelaxer& relaxer, const std::vector<Query>& queries,
    size_t num_threads) {
  std::vector<RelaxationOutcome> outcomes(queries.size());
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += num_threads) {
        outcomes[i] =
            relaxer.RelaxConcept(queries[i].concept_id, queries[i].context);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return outcomes;
}

TEST(Concurrency, ConcurrentSimilarityCallsShareTheCache) {
  ConcurrencyWorld w = MakeWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  const SimilarityModel& model = relaxer.similarity();
  ConceptId query = w.fx.ckd_stage1_due_to_hypertension;
  double expected_kidney = model.Similarity(query, w.fx.kidney_disease, 0);
  double expected_hrd =
      model.Similarity(query, w.fx.hypertensive_renal_disease, 0);

  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kIterations; ++i) {
        // Alternate pairs so threads race on both reads and inserts.
        double kidney = model.Similarity(query, w.fx.kidney_disease, 0);
        double hrd =
            model.Similarity(query, w.fx.hypertensive_renal_disease, 0);
        if (kidney != expected_kidney || hrd != expected_hrd) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(Concurrency, ThreadsOnOneRelaxerMatchSequential) {
  ConcurrencyWorld w = MakeWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  std::vector<Query> queries;
  const std::vector<ConceptId> rotation = {
      w.fx.ckd_stage1_due_to_hypertension, w.fx.kidney_disease,
      w.fx.hypertensive_renal_disease, w.fx.hypertensive_nephropathy};
  for (size_t i = 0; i < 64; ++i) {
    queries.push_back({rotation[i % rotation.size()], 0});
  }
  std::vector<RelaxationOutcome> parallel =
      RelaxFromThreads(relaxer, queries, 4);
  std::vector<RelaxationOutcome> sequential =
      RelaxFromThreads(relaxer, queries, 1);
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(parallel[i].concepts.size(), sequential[i].concepts.size())
        << "query " << i;
    for (size_t j = 0; j < parallel[i].concepts.size(); ++j) {
      EXPECT_EQ(parallel[i].concepts[j].concept_id,
                sequential[i].concepts[j].concept_id);
      EXPECT_DOUBLE_EQ(parallel[i].concepts[j].similarity,
                       sequential[i].concepts[j].similarity);
    }
    EXPECT_EQ(parallel[i].instances, sequential[i].instances) << "query " << i;
  }
}

TEST(Concurrency, ConcurrentBatchesOnOneRelaxer) {
  ConcurrencyWorld w = MakeWorld();
  QueryRelaxer relaxer(&w.fx.dag, &w.ingestion, w.matcher.get(),
                       SimilarityOptions{}, RelaxationOptions{});
  const std::vector<Query> queries = {
      {w.fx.ckd_stage1_due_to_hypertension, 0},
      {w.fx.kidney_disease, 0},
      {w.fx.hypertensive_renal_disease, 0},
  };
  std::vector<RelaxationOutcome> expected;
  for (const Query& q : queries) {
    expected.push_back(relaxer.RelaxConcept(q.concept_id, q.context));
  }

  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < 20; ++i) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const RelaxationOutcome got =
              relaxer.RelaxConcept(queries[q].concept_id, queries[q].context);
          if (got.concepts.size() != expected[q].concepts.size() ||
              got.instances != expected[q].instances) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(Concurrency, ThreadsOnGeneratedWorldMatchSequential) {
  std::unique_ptr<GeneratedRig> rig = MakeGeneratedRig(1500, 41);
  QueryRelaxer relaxer(&rig->world.eks.dag, &rig->ingestion,
                       rig->matcher.get(), SimilarityOptions{},
                       RelaxationOptions{});
  QueryRelaxer reference(&rig->world.eks.dag, &rig->ingestion,
                         rig->matcher.get(), SimilarityOptions{},
                         RelaxationOptions{});
  const std::vector<ConceptId>& region = rig->world.eks.finding_concepts;
  ASSERT_FALSE(region.empty());
  std::vector<Query> queries;
  for (size_t i = 0; i < 48; ++i) {
    // Runs of duplicates: a repeated query re-anchors like a new one.
    queries.push_back({region[(i / 2 * 7) % region.size()],
                       i % 3 == 0 ? kNoContext : rig->world.ctx_indication});
  }
  std::vector<RelaxationOutcome> parallel =
      RelaxFromThreads(relaxer, queries, 4);
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameOutcome(
        parallel[i],
        reference.RelaxConcept(queries[i].concept_id, queries[i].context), i);
  }
}

TEST(Concurrency, ThreadScratchDoesNotCarryAnchorAcrossDags) {
  // One thread relaxes a query id on a larger DAG, then the same id on a
  // smaller, different DAG. The thread_local scratch is shared by both
  // relaxers; the second answer must equal a fresh thread's.
  std::unique_ptr<GeneratedRig> big = MakeGeneratedRig(1500, 51);
  std::unique_ptr<GeneratedRig> small = MakeGeneratedRig(400, 57);
  QueryRelaxer big_relaxer(&big->world.eks.dag, &big->ingestion,
                           big->matcher.get(), SimilarityOptions{},
                           RelaxationOptions{});
  QueryRelaxer small_relaxer(&small->world.eks.dag, &small->ingestion,
                             small->matcher.get(), SimilarityOptions{},
                             RelaxationOptions{});
  std::vector<ConceptId> queries;
  const std::vector<bool>& flagged = small->ingestion.flagged;
  for (ConceptId id = 0; id < flagged.size() && queries.size() < 12; ++id) {
    if (flagged[id]) queries.push_back(id);
  }
  ASSERT_FALSE(queries.empty());

  std::vector<RelaxationOutcome> fresh;
  std::thread([&] {
    for (ConceptId q : queries) {
      fresh.push_back(small_relaxer.RelaxConcept(q, kNoContext));
    }
  }).join();

  // Both entry points, each after the big DAG re-anchored the scratch.
  const size_t k = small_relaxer.options().top_k;
  std::vector<RelaxationOutcome> single, with_k;
  std::thread([&] {
    for (ConceptId q : queries) {
      (void)big_relaxer.RelaxConcept(q, kNoContext);
      single.push_back(small_relaxer.RelaxConcept(q, kNoContext));
      (void)big_relaxer.RelaxConcept(q, kNoContext);
      with_k.push_back(small_relaxer.RelaxConceptWithK(q, kNoContext, k));
    }
  }).join();

  ASSERT_EQ(single.size(), fresh.size());
  ASSERT_EQ(with_k.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    ExpectSameOutcome(single[i], fresh[i], i);
    ExpectSameOutcome(with_k[i], fresh[i], i);
  }
}

}  // namespace
}  // namespace medrelax
