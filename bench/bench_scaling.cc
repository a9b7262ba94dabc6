// Scaling benchmarks backing the complexity claims of Sections 5.1-5.2:
//
//   * offline ingestion is a one-time cost that scales near-linearly in
//     |V| + |E| (plus the mapping and frequency terms);
//   * online relaxation is Θ(N log N) in the candidate count and is kept
//     fast by the shortcut edges (small radius suffices);
//   * the shortcut customization shrinks the radius needed to reach the
//     flagged set;
//   * BM_RelaxBatch measures multi-threaded batch throughput;
//   * BM_RelaxationVIndependence times the same small-ball relaxation on a
//     1k- and a 64k-concept synthetic DAG in one run; its counter
//     v_independence (small ÷ large time per query) is CI-floored, so a
//     per-query cost that scales with |V| or with a hub's fan-out cannot
//     come back unnoticed. On the 64k DAG it also times a far term (an
//     unflagged hub leaf, whose ball holds every other leaf); near_vs_far
//     (near ÷ far time) is CI-floored too, so a candidate search that
//     walks peeled filler concepts cannot come back either.
//
// google-benchmark binary: run with --benchmark_filter=... to narrow.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/relax/relax_stats.h"

using namespace medrelax;         // NOLINT — bench brevity
using namespace medrelax::bench;  // NOLINT

namespace {

// Shared worlds per size, built once (1-core box: keep them modest).
std::unique_ptr<StandardWorld>& WorldForSize(size_t num_concepts) {
  static std::map<size_t, std::unique_ptr<StandardWorld>> cache;
  auto& slot = cache[num_concepts];
  if (slot == nullptr) {
    slot = BuildStandardWorld(num_concepts, /*drugs=*/80,
                              /*findings=*/num_concepts / 16,
                              /*seed=*/2026);
  }
  return slot;
}

// The finding region of WorldForSize(num_concepts) in a fixed
// pseudo-random order. The generator emits the region top-down, so its
// first concepts are the broad ones with the largest balls, and a short
// run timed only those; every prefix of the shuffled order is a uniform
// sample, so the mean per query does not depend on how many iterations
// the timer chose.
const std::vector<ConceptId>& QueryOrder(size_t num_concepts) {
  static std::map<size_t, std::vector<ConceptId>> cache;
  auto& slot = cache[num_concepts];
  if (slot.empty() && WorldForSize(num_concepts) != nullptr) {
    slot = WorldForSize(num_concepts)->world.eks.finding_concepts;
    Rng rng(7);
    rng.Shuffle(&slot);
  }
  return slot;
}

void BM_OfflineIngestion(benchmark::State& state) {
  const size_t num_concepts = static_cast<size_t>(state.range(0));
  SnomedGeneratorOptions eks_opts;
  eks_opts.num_concepts = num_concepts;
  eks_opts.seed = 99;
  KbGeneratorOptions kb_opts;
  kb_opts.num_drugs = 60;
  kb_opts.num_findings = num_concepts / 16;
  kb_opts.seed = 100;
  for (auto _ : state) {
    state.PauseTiming();
    // Regenerate the DAG each iteration: ingestion mutates it (shortcuts).
    Result<GeneratedWorld> world = GenerateWorld(eks_opts, kb_opts);
    if (!world.ok()) state.SkipWithError("world generation failed");
    NameIndex index(&world->eks.dag);
    EditDistanceMatcher matcher(&index, EditMatcherOptions{});
    state.ResumeTiming();
    Result<IngestionResult> result = RunIngestion(
        world->kb, &world->eks.dag, matcher, nullptr, IngestionOptions{});
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("concepts=" + std::to_string(num_concepts));
}
BENCHMARK(BM_OfflineIngestion)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_OnlineRelaxation(benchmark::State& state) {
  const size_t num_concepts = static_cast<size_t>(state.range(0));
  auto& s = WorldForSize(num_concepts);
  if (s == nullptr) {
    state.SkipWithError("world build failed");
    return;
  }
  RelaxationOptions ropts;
  ropts.radius = 4;
  ropts.top_k = 10;
  QueryRelaxer relaxer(&s->world.eks.dag, &s->with_corpus, s->edit.get(),
                       SimilarityOptions{}, ropts);
  const std::vector<ConceptId>& region = QueryOrder(num_concepts);
  size_t i = 0;
  RelaxStats total;
  for (auto _ : state) {
    RelaxationOutcome outcome = relaxer.RelaxConcept(
        region[i % region.size()], s->world.ctx_indication);
    total.Accumulate(outcome.stats);
    benchmark::DoNotOptimize(outcome);
    ++i;
  }
  const double runs = std::max<double>(1.0, static_cast<double>(i));
  state.counters["avg_candidates"] =
      static_cast<double>(total.candidates_scanned) / runs;
  state.counters["avg_neighbors"] =
      static_cast<double>(total.neighbors_visited) / runs;
  state.SetLabel("concepts=" + std::to_string(num_concepts));
}
BENCHMARK(BM_OnlineRelaxation)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMicrosecond);

void BM_RelaxBatch(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  auto& s = WorldForSize(8000);
  if (s == nullptr) {
    state.SkipWithError("world build failed");
    return;
  }
  RelaxationOptions ropts;
  ropts.radius = 4;
  ropts.top_k = 10;
  QueryRelaxer relaxer(&s->world.eks.dag, &s->with_corpus, s->edit.get(),
                       SimilarityOptions{}, ropts);
  const std::vector<ConceptId>& region = s->world.eks.finding_concepts;
  std::vector<ConceptQuery> queries;
  queries.reserve(64);
  for (size_t i = 0; i < 64; ++i) {
    queries.push_back({region[i % region.size()], s->world.ctx_indication});
  }
  for (auto _ : state) {
    std::vector<RelaxationOutcome> outcomes =
        relaxer.RelaxBatch(queries, threads);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_RelaxBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A synthetic taxonomy whose query ball is 16 concepts at any |V|:
// root <- hub <- a <- b <- c <- query, where a, b and c each have three
// flagged leaf children and every other concept is a leaf child of the
// hub. The radius-4 ball of `query` ends exactly at the hub, and every
// candidate's ancestor cone passes through it.
struct HubWorld {
  ConceptDag dag;
  IngestionResult ingestion;
  ConceptId query = kInvalidConcept;
  /// An unflagged leaf of the hub: a far term, whose radius-4 ball
  /// holds every other hub leaf.
  ConceptId far = kInvalidConcept;
};

std::unique_ptr<HubWorld> BuildHubWorld(size_t num_concepts) {
  auto w = std::make_unique<HubWorld>();
  ConceptDag& dag = w->dag;
  std::vector<ConceptId> parent_of;
  auto add = [&](ConceptId parent) {
    const ConceptId id = *dag.AddConcept(StrFormat("c%zu", parent_of.size()));
    parent_of.push_back(parent);
    if (parent != kInvalidConcept) (void)dag.AddSubsumption(id, parent);
    return id;
  };
  const ConceptId root = add(kInvalidConcept);
  const ConceptId hub = add(root);
  std::vector<ConceptId> flagged;
  ConceptId below = hub;
  for (int level = 0; level < 3; ++level) {
    below = add(below);
    flagged.push_back(below);
    for (int leaf = 0; leaf < 3; ++leaf) flagged.push_back(add(below));
  }
  w->query = add(below);
  flagged.push_back(w->query);
  while (parent_of.size() < num_concepts) w->far = add(hub);

  // One context; raw frequency = reflexive descendant count, normalized
  // at the root (Equation 2's propagation on a tree).
  IngestionResult& ingestion = w->ingestion;
  ingestion.frequencies = FrequencyModel(num_concepts, 1);
  std::vector<double> raw(num_concepts, 1.0);
  for (ConceptId id = static_cast<ConceptId>(num_concepts - 1); id > 0; --id) {
    raw[parent_of[id]] += raw[id];
  }
  for (ConceptId id = 0; id < num_concepts; ++id) {
    ingestion.frequencies.SetRaw(id, 0, raw[id]);
  }
  ingestion.frequencies.Normalize(root);
  ingestion.flagged.assign(num_concepts, false);
  InstanceId next_instance = 0;
  for (ConceptId id : flagged) {
    ingestion.flagged[id] = true;
    ingestion.concept_instances[id] = {next_instance, next_instance + 1};
    next_instance += 2;
  }
  return w;
}

void BM_RelaxationVIndependence(benchmark::State& state) {
  static std::unique_ptr<HubWorld> small = BuildHubWorld(1000);
  static std::unique_ptr<HubWorld> large = BuildHubWorld(65536);
  RelaxationOptions ropts;
  ropts.radius = 4;
  ropts.top_k = 10;
  QueryRelaxer small_relaxer(&small->dag, &small->ingestion, nullptr,
                             SimilarityOptions{}, ropts);
  QueryRelaxer large_relaxer(&large->dag, &large->ingestion, nullptr,
                             SimilarityOptions{}, ropts);
  using Clock = std::chrono::steady_clock;
  Clock::duration small_time{0}, large_time{0}, far_time{0};
  size_t neighbors = 0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    RelaxationOutcome a = small_relaxer.RelaxConcept(small->query, 0);
    const Clock::time_point t1 = Clock::now();
    RelaxationOutcome b = large_relaxer.RelaxConcept(large->query, 0);
    const Clock::time_point t2 = Clock::now();
    RelaxationOutcome c = large_relaxer.RelaxConcept(large->far, 0);
    const Clock::time_point t3 = Clock::now();
    small_time += t1 - t0;
    large_time += t2 - t1;
    far_time += t3 - t2;
    neighbors = b.stats.neighbors_visited;
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c);
  }
  auto ratio = [](Clock::duration num, Clock::duration den) {
    return den.count() > 0 ? static_cast<double>(num.count()) /
                                 static_cast<double>(den.count())
                           : 0.0;
  };
  state.counters["avg_neighbors"] = static_cast<double>(neighbors);
  state.counters["v_independence"] = ratio(small_time, large_time);
  state.counters["near_vs_far"] = ratio(large_time, far_time);
  state.SetLabel("concepts=1000 vs 65536, hub-ended ball; far hub leaf");
}
BENCHMARK(BM_RelaxationVIndependence)->Unit(benchmark::kMicrosecond);

void BM_OnlineRelaxationByRadius(benchmark::State& state) {
  auto& s = WorldForSize(4000);
  if (s == nullptr) {
    state.SkipWithError("world build failed");
    return;
  }
  RelaxationOptions ropts;
  ropts.radius = static_cast<uint32_t>(state.range(0));
  ropts.dynamic_radius = false;
  ropts.top_k = 10;
  QueryRelaxer relaxer(&s->world.eks.dag, &s->with_corpus, s->edit.get(),
                       SimilarityOptions{}, ropts);
  const std::vector<ConceptId>& region = s->world.eks.finding_concepts;
  size_t i = 0;
  size_t candidates = 0, runs = 0;
  for (auto _ : state) {
    RelaxationOutcome outcome = relaxer.RelaxConcept(
        region[i % region.size()], s->world.ctx_indication);
    candidates += outcome.concepts.size();
    ++runs;
    benchmark::DoNotOptimize(outcome);
    ++i;
  }
  state.counters["avg_concepts"] =
      runs == 0 ? 0.0 : static_cast<double>(candidates) / runs;
}
BENCHMARK(BM_OnlineRelaxationByRadius)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_NeighborhoodWithVsWithoutShortcuts(benchmark::State& state) {
  const bool with_shortcuts = state.range(0) == 1;
  // Build two DAG variants once.
  static std::unique_ptr<StandardWorld> customized =
      BuildStandardWorld(4000, 80, 250, 1234);
  static std::unique_ptr<GeneratedWorld> plain = [] {
    SnomedGeneratorOptions eks;
    eks.num_concepts = 4000;
    eks.seed = 1234;
    KbGeneratorOptions kb;
    kb.num_drugs = 80;
    kb.num_findings = 250;
    kb.seed = 1235;
    auto w = GenerateWorld(eks, kb);
    return w.ok() ? std::make_unique<GeneratedWorld>(std::move(*w)) : nullptr;
  }();
  if (customized == nullptr || plain == nullptr) {
    state.SkipWithError("world build failed");
    return;
  }
  const ConceptDag& dag =
      with_shortcuts ? customized->world.eks.dag : plain->eks.dag;
  const std::vector<ConceptId>& region =
      with_shortcuts ? customized->world.eks.finding_concepts
                     : plain->eks.finding_concepts;
  size_t i = 0;
  size_t reached = 0, runs = 0;
  for (auto _ : state) {
    std::vector<Neighbor> n =
        NeighborsWithinRadius(dag, region[i % region.size()], 2);
    reached += n.size();
    ++runs;
    benchmark::DoNotOptimize(n);
    ++i;
  }
  state.counters["avg_reached"] =
      runs == 0 ? 0.0 : static_cast<double>(reached) / runs;
  state.SetLabel(with_shortcuts ? "with-shortcuts" : "without-shortcuts");
}
BENCHMARK(BM_NeighborhoodWithVsWithoutShortcuts)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_SimilarityComputation(benchmark::State& state) {
  auto& s = WorldForSize(4000);
  if (s == nullptr) {
    state.SkipWithError("world build failed");
    return;
  }
  SimilarityModel model(&s->world.eks.dag, &s->with_corpus.frequencies,
                        SimilarityOptions{});
  const std::vector<ConceptId>& pool = s->world.kb_finding_concepts;
  size_t i = 0;
  for (auto _ : state) {
    double sim = model.Similarity(pool[i % pool.size()],
                                  pool[(i + 7) % pool.size()],
                                  s->world.ctx_indication);
    benchmark::DoNotOptimize(sim);
    ++i;
  }
}
BENCHMARK(BM_SimilarityComputation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
