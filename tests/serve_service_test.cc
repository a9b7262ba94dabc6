// End-to-end tests of RelaxationService: request lifecycle, result
// caching, admission control (queue-full fast-fail), deadline handling,
// snapshot hot-swap, and the stats block. Deterministic scheduling where
// it matters: num_workers = 0 + RunOnce gives the tests full control of
// when the queue drains.

#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/serve/relaxation_service.h"

namespace medrelax {
namespace {

std::shared_ptr<Snapshot> BuildSmallSnapshot(
    uint64_t seed = 7, const SnapshotOptions& options = SnapshotOptions{}) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 600;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = 40;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  EXPECT_TRUE(world.ok()) << world.status();
  Result<std::shared_ptr<Snapshot>> snapshot = Snapshot::Build(
      std::move(world->eks.dag), std::move(world->kb), nullptr, options);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return *snapshot;
}

ConceptId FirstFlagged(const Snapshot& snap) {
  const std::vector<bool>& flagged = snap.ingestion().flagged;
  for (ConceptId id = 0; id < flagged.size(); ++id) {
    if (flagged[id]) return id;
  }
  return kInvalidConcept;
}

RelaxRequest ConceptRequest(ConceptId concept_id) {
  RelaxRequest request;
  request.concept_id = concept_id;
  return request;
}

TEST(RelaxationService, ServesTermAndConceptQueries) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  const auto& [instance, mapped_concept] = snap->ingestion().mappings.front();
  const std::string term = snap->kb().instances.instance(instance).name;

  ServiceOptions options;
  options.num_workers = 1;
  RelaxationService service(snap, options);
  EXPECT_EQ(service.snapshot()->generation(), 1u);

  RelaxRequest by_term;
  by_term.term = term;
  Result<RelaxResponse> term_response = service.Relax(by_term);
  ASSERT_TRUE(term_response.ok()) << term_response.status();
  EXPECT_FALSE(term_response->cache_hit);
  EXPECT_EQ(term_response->snapshot->generation(), 1u);
  EXPECT_FALSE(term_response->outcome->instances.empty());

  // The same query by resolved concept id returns the identical answer —
  // term resolution happens before the cache, so this is even a hit.
  Result<RelaxResponse> concept_response =
      service.Relax(ConceptRequest(mapped_concept));
  ASSERT_TRUE(concept_response.ok());
  EXPECT_TRUE(concept_response->cache_hit);
  EXPECT_EQ(concept_response->outcome->instances,
            term_response->outcome->instances);
}

TEST(RelaxationService, StatsTimeTermMappingOnlyForTermRequests) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  const auto& [instance, mapped_concept] = snap->ingestion().mappings.front();
  ServiceOptions options;
  options.num_workers = 1;
  RelaxationService service(snap, options);

  ASSERT_TRUE(service.Relax(ConceptRequest(mapped_concept)).ok());
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.map_ns, 0u);
  EXPECT_EQ(stats.map_terms, 0u);

  // Mapping runs before the cache probe, so this term is timed even
  // though its answer is the cached one.
  RelaxRequest by_term;
  by_term.term = snap->kb().instances.instance(instance).name;
  Result<RelaxResponse> response = service.Relax(by_term);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->cache_hit);
  stats = service.Stats();
  EXPECT_EQ(stats.map_terms, 1u);
  EXPECT_GT(stats.map_ns, 0u);
  const uint64_t first_map_ns = stats.map_ns;

  ASSERT_TRUE(service.Relax(by_term).ok());
  stats = service.Stats();
  EXPECT_EQ(stats.map_terms, 2u);
  EXPECT_GT(stats.map_ns, first_map_ns);
  EXPECT_NE(stats.ToString().find("map_terms=2\n"), std::string::npos);
  EXPECT_EQ(stats.ToString(/*deterministic_only=*/true).find("map_"),
            std::string::npos)
      << "mapping time must stay out of the deterministic block";
}

TEST(RelaxationService, CachesRepeatedQueriesAndCountsThem) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 1;
  RelaxationService service(snap, options);

  Result<RelaxResponse> cold = service.Relax(ConceptRequest(query));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  Result<RelaxResponse> warm = service.Relax(ConceptRequest(query));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->outcome.get(), cold->outcome.get())
      << "a hit shares the cached outcome object";

  // Different k = different answer shape = different cache entry.
  RelaxRequest bigger = ConceptRequest(query);
  bigger.top_k = 3;
  Result<RelaxResponse> other_k = service.Relax(bigger);
  ASSERT_TRUE(other_k.ok());
  EXPECT_FALSE(other_k->cache_hit);

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GT(stats.relax.candidates_scanned, 0u)
      << "RelaxStats must flow into the service aggregate";
}

TEST(RelaxationService, QueueFullRejectsWithResourceExhausted) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains the queue until RunOnce
  options.queue_capacity = 2;
  options.max_batch = 1;  // strict one-request-per-RunOnce, no batch drain
  RelaxationService service(snap, options);

  auto first = service.Submit(ConceptRequest(query));
  auto second = service.Submit(ConceptRequest(query));
  auto rejected = service.Submit(ConceptRequest(query));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "admission rejection must fail fast, not queue";
  Result<RelaxResponse> response = rejected.get();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status();

  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_TRUE(service.RunOnce());
  EXPECT_TRUE(service.RunOnce());
  EXPECT_FALSE(service.RunOnce());
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.requests, 2u) << "rejected requests are not admitted";
  EXPECT_EQ(stats.queue_depth_high_water, 2u);
}

TEST(RelaxationService, ExpiredRequestsFailFastWithDeadlineExceeded) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;
  RelaxationService service(snap, options);

  RelaxRequest hurried = ConceptRequest(query);
  hurried.timeout = std::chrono::nanoseconds(1);
  auto future = service.Submit(hurried);
  // Let the 1 ns budget lapse before any worker touches the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(service.RunOnce());
  Result<RelaxResponse> response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded()) << response.status();
  EXPECT_EQ(service.Stats().rejected_deadline, 1u);
  EXPECT_EQ(service.Stats().completed, 0u)
      << "no relaxation work may be spent on an expired request";
}

TEST(RelaxationService, NegativeTimeoutIsRejectedAsInvalidArgument) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;
  // A default deadline must NOT be substituted for a negative timeout —
  // that was the original fallthrough bug.
  options.default_deadline = std::chrono::milliseconds(1000);
  RelaxationService service(snap, options);

  RelaxRequest bogus = ConceptRequest(query);
  bogus.timeout = std::chrono::milliseconds(-5);
  auto future = service.Submit(bogus);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a negative timeout must be rejected at submit, not queued";
  Result<RelaxResponse> response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 0u) << "rejected before admission";
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(RelaxationService, DefaultDeadlineAppliesWhenRequestHasNone) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;
  options.default_deadline = std::chrono::milliseconds(1);
  RelaxationService service(snap, options);

  auto future = service.Submit(ConceptRequest(query));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(service.RunOnce());
  Result<RelaxResponse> response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded());
}

TEST(RelaxationService, UnknownTermFailsNotFound) {
  ServiceOptions options;
  options.num_workers = 1;
  SnapshotOptions snapshot_options;
  snapshot_options.use_exact_mapper = true;  // no fuzzy rescue
  RelaxationService service(BuildSmallSnapshot(7, snapshot_options), options);
  RelaxRequest request;
  request.term = "definitely not a concept name";
  Result<RelaxResponse> response = service.Relax(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsNotFound()) << response.status();
  EXPECT_EQ(service.Stats().failed, 1u);
}

TEST(RelaxationService, OutOfRangeContextFailsInvalidArgument) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ServiceOptions options;
  options.num_workers = 1;
  RelaxationService service(snap, options);
  RelaxRequest request = ConceptRequest(FirstFlagged(*snap));
  request.context = 1000;  // far past the registry
  Result<RelaxResponse> response = service.Relax(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
}

TEST(RelaxationService, SnapshotSwapInvalidatesCacheByGeneration) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot(7);
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 1;
  RelaxationService service(snap, options);

  Result<RelaxResponse> cold = service.Relax(ConceptRequest(query));
  ASSERT_TRUE(cold.ok());
  Result<RelaxResponse> warm = service.Relax(ConceptRequest(query));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  // Publish an identically built snapshot: same answers, new generation.
  EXPECT_EQ(service.PublishSnapshot(BuildSmallSnapshot(7)), 2u);
  Result<RelaxResponse> after = service.Relax(ConceptRequest(query));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot->generation(), 2u);
  EXPECT_FALSE(after->cache_hit)
      << "generation-scoped keys must miss after a swap";
  EXPECT_EQ(after->outcome->instances, cold->outcome->instances)
      << "same world, same answer — just recomputed";
  EXPECT_EQ(service.Stats().snapshot_swaps, 1u);
}

TEST(RelaxationService, BatchDrainCoalescesIdenticalQueuedRequests) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;
  options.max_batch = 8;
  options.cache.capacity = 0;  // all dedup must come from single-flight
  RelaxationService service(snap, options);

  std::vector<std::future<Result<RelaxResponse>>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.Submit(ConceptRequest(query)));
  }
  EXPECT_EQ(service.queue_depth(), 5u);

  // One pump: the leader claims the in-flight entry, the drain pulls the
  // other four, and Prepare attaches them as followers of the same key —
  // one relaxer pass answers all five.
  EXPECT_TRUE(service.RunOnce());
  size_t leaders = 0, followers = 0;
  std::shared_ptr<const RelaxationOutcome> shared;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    Result<RelaxResponse> response = future.get();
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->coalesced) {
      ++followers;
      EXPECT_TRUE(response->cache_hit)
          << "a coalesced answer counts as a hit: zero relaxer work";
    } else {
      ++leaders;
      EXPECT_FALSE(response->cache_hit);
    }
    if (shared == nullptr) shared = response->outcome;
    EXPECT_EQ(response->outcome.get(), shared.get())
        << "every caller shares the one computed outcome";
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(followers, 4u);
  EXPECT_FALSE(service.RunOnce()) << "the drain emptied the queue";

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.cache_misses, 1u) << "one relaxer invocation for five";
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.coalesced_hits, 4u);
  EXPECT_EQ(stats.inflight_peak, 1u);
}

TEST(RelaxationService, BatchDrainPullsOnlySameContextRequests) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ASSERT_GE(snap->ingestion().contexts.size(), 1u);
  const std::vector<bool>& flagged = snap->ingestion().flagged;
  std::vector<ConceptId> pool;
  for (ConceptId id = 0; id < flagged.size() && pool.size() < 4; ++id) {
    if (flagged[id]) pool.push_back(id);
  }
  ASSERT_EQ(pool.size(), 4u);

  ServiceOptions options;
  options.num_workers = 0;
  options.max_batch = 8;
  RelaxationService service(snap, options);

  // Three kNoContext requests with an other-context request wedged in
  // between: the drain must pull the context matches past it and leave it
  // queued, in place.
  RelaxRequest other = ConceptRequest(pool[1]);
  other.context = 0;
  auto first = service.Submit(ConceptRequest(pool[0]));
  auto wedged = service.Submit(other);
  auto third = service.Submit(ConceptRequest(pool[2]));
  auto fourth = service.Submit(ConceptRequest(pool[3]));

  EXPECT_TRUE(service.RunOnce());
  EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(fourth.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(wedged.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "a different context must not ride the drained group";
  EXPECT_EQ(service.queue_depth(), 1u);

  // Distinct concepts, same context: co-leaders in one shared-frontier
  // pass, not followers — each runs the relaxer once.
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.coalesced_hits, 0u);

  EXPECT_TRUE(service.RunOnce());
  EXPECT_TRUE(wedged.get().ok());
  EXPECT_FALSE(service.RunOnce());
}

TEST(RelaxationService, ShutdownRejectsNewAndFailsQueued) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 0;
  RelaxationService service(snap, options);

  auto queued = service.Submit(ConceptRequest(query));
  service.Shutdown();
  Result<RelaxResponse> queued_response = queued.get();
  ASSERT_FALSE(queued_response.ok());
  EXPECT_TRUE(queued_response.status().IsFailedPrecondition());

  auto late = service.Submit(ConceptRequest(query));
  Result<RelaxResponse> late_response = late.get();
  ASSERT_FALSE(late_response.ok());
  EXPECT_TRUE(late_response.status().IsFailedPrecondition());
  EXPECT_EQ(service.Stats().rejected_shutdown, 2u);
}

TEST(RelaxationService, WorkersDrainAdmittedRequestsOnShutdown) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.num_workers = 2;
  RelaxationService service(snap, options);
  std::vector<std::future<Result<RelaxResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(ConceptRequest(query)));
  }
  service.Shutdown();
  for (auto& future : futures) {
    Result<RelaxResponse> response = future.get();
    EXPECT_TRUE(response.ok())
        << "admitted work is served, not dropped: " << response.status();
  }
}

TEST(ServiceStats, ToStringDeterministicSubsetIsStable) {
  ServiceStats stats;
  stats.RecordAdmitted(1);
  stats.RecordCompleted(/*cache_hit=*/false, /*latency_ns=*/2'000'000);
  stats.RecordCompleted(/*cache_hit=*/true, /*latency_ns=*/1'000);
  stats.RecordRejectedQueueFull();
  const std::string block = stats.Snapshot().ToString(true);
  EXPECT_NE(block.find("requests=1\n"), std::string::npos) << block;
  EXPECT_NE(block.find("cache_hits=1\n"), std::string::npos) << block;
  EXPECT_NE(block.find("rejected_queue_full=1\n"), std::string::npos);
  EXPECT_EQ(block.find("latency"), std::string::npos)
      << "wall-clock fields must stay out of the deterministic block";
}

}  // namespace
}  // namespace medrelax
