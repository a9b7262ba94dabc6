// End-to-end tests of RelaxationService: request lifecycle, result
// caching, deadline handling, snapshot hot-swap, shutdown and the stats
// block. Every call answers on the test's own thread, so the tests are
// deterministic; a deadline is made to lapse by back-dating the
// request's received_at.

#include <chrono>
#include <future>
#include <string>
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

  RelaxationService service(snap, ServiceOptions{});
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
  RelaxationService service(snap, ServiceOptions{});

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
  RelaxationService service(snap, ServiceOptions{});

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

TEST(RelaxationService, ExpiredRequestsFailFastWithDeadlineExceeded) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  RelaxationService service(snap, ServiceOptions{});

  // The line was framed 1 ms ago with a 1 us budget: spent before the
  // relaxer could start.
  RelaxRequest hurried = ConceptRequest(query);
  hurried.timeout = std::chrono::microseconds(1);
  hurried.received_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<RelaxResponse> response = service.Relax(hurried);
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
  // A default deadline must NOT be substituted for a negative timeout —
  // that was the original fallthrough bug.
  options.default_deadline = std::chrono::milliseconds(1000);
  RelaxationService service(snap, options);

  RelaxRequest bogus = ConceptRequest(query);
  bogus.timeout = std::chrono::milliseconds(-5);
  Result<RelaxResponse> response = service.Relax(bogus);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 0u) << "rejected before it counts as a request";
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(RelaxationService, DefaultDeadlineAppliesWhenRequestHasNone) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  ServiceOptions options;
  options.default_deadline = std::chrono::milliseconds(1);
  RelaxationService service(snap, options);

  RelaxRequest late = ConceptRequest(query);
  late.received_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  Result<RelaxResponse> response = service.Relax(late);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded());

  // The same request received now fits the 1 ms budget.
  EXPECT_TRUE(service.Relax(ConceptRequest(query)).ok());
}

TEST(RelaxationService, UnknownTermFailsNotFound) {
  SnapshotOptions snapshot_options;
  snapshot_options.use_exact_mapper = true;  // no fuzzy rescue
  RelaxationService service(BuildSmallSnapshot(7, snapshot_options),
                            ServiceOptions{});
  RelaxRequest request;
  request.term = "definitely not a concept name";
  Result<RelaxResponse> response = service.Relax(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsNotFound()) << response.status();
  EXPECT_EQ(service.Stats().failed, 1u);
}

TEST(RelaxationService, OutOfRangeContextFailsInvalidArgument) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  RelaxationService service(snap, ServiceOptions{});
  RelaxRequest request = ConceptRequest(FirstFlagged(*snap));
  request.context = 1000;  // far past the registry
  Result<RelaxResponse> response = service.Relax(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
}

TEST(RelaxationService, SnapshotSwapInvalidatesCacheByGeneration) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot(7);
  ConceptId query = FirstFlagged(*snap);
  RelaxationService service(snap, ServiceOptions{});

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

TEST(RelaxationService, ShutdownFailsLaterCalls) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  ConceptId query = FirstFlagged(*snap);
  RelaxationService service(snap, ServiceOptions{});

  // Submit answers on the calling thread: its future is ready on return.
  auto early = service.Submit(ConceptRequest(query));
  ASSERT_EQ(early.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(early.get().ok());

  service.Shutdown();
  Result<RelaxResponse> late = service.Relax(ConceptRequest(query));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsFailedPrecondition()) << late.status();
  Result<RelaxResponse> submitted = service.Submit(ConceptRequest(query)).get();
  EXPECT_TRUE(submitted.status().IsFailedPrecondition());
  EXPECT_EQ(service.Stats().completed, 1u);
}

TEST(ServiceStats, ToStringDeterministicSubsetIsStable) {
  ServiceStats stats;
  stats.RecordRequest();
  stats.RecordCompleted(/*cache_hit=*/false, /*latency_ns=*/2'000'000);
  stats.RecordCompleted(/*cache_hit=*/true, /*latency_ns=*/1'000);
  stats.RecordRejectedDeadline();
  const std::string block = stats.Snapshot().ToString(true);
  EXPECT_NE(block.find("requests=1\n"), std::string::npos) << block;
  EXPECT_NE(block.find("cache_hits=1\n"), std::string::npos) << block;
  EXPECT_NE(block.find("rejected_deadline=1\n"), std::string::npos);
  EXPECT_EQ(block.find("latency"), std::string::npos)
      << "wall-clock fields must stay out of the deterministic block";
}

}  // namespace
}  // namespace medrelax
