// Thread-safety tests of the serving layer, written to be exercised under
// the tsan preset: threads calling Relax concurrently (as the TCP event
// loops do) racing hot snapshot swaps, the shared result cache under
// contention, and shutdown racing callers. The assertions are
// deliberately about *invariants* (every call returns, answers match the
// generation that served them) rather than timing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/deadlock_detector.h"
#include "medrelax/common/string_util.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/serve/relax_reply.h"
#include "medrelax/serve/relaxation_service.h"

namespace medrelax {
namespace {

std::shared_ptr<Snapshot> BuildSnapshot(uint64_t seed) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 600;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = 40;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  EXPECT_TRUE(world.ok()) << world.status();
  Result<std::shared_ptr<Snapshot>> snapshot =
      Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                      nullptr, SnapshotOptions{});
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return *snapshot;
}

std::vector<ConceptId> FlaggedConcepts(const Snapshot& snap, size_t limit) {
  std::vector<ConceptId> out;
  const std::vector<bool>& flagged = snap.ingestion().flagged;
  for (ConceptId id = 0; id < flagged.size() && out.size() < limit; ++id) {
    if (flagged[id]) out.push_back(id);
  }
  return out;
}

TEST(ServeConcurrency, QueriesRaceSnapshotSwaps) {
  // All seeds build from the same generated world, so answers are
  // comparable across generations; what changes per publish is the
  // generation (and therefore the cache keyspace).
  std::shared_ptr<Snapshot> initial = BuildSnapshot(7);
  std::vector<ConceptId> queries = FlaggedConcepts(*initial, 16);
  ASSERT_FALSE(queries.empty());

  ServiceOptions options;
  options.cache.capacity = 128;
  options.cache.num_shards = 2;  // force cross-thread shard contention
  RelaxationService service(initial, options);

  constexpr int kSubmitters = 3;
  constexpr int kRequestsPerThread = 120;
  constexpr int kSwaps = 6;

  std::atomic<bool> start{false};
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RelaxRequest request;
        request.concept_id = queries[(t * 31 + i) % queries.size()];
        Result<RelaxResponse> response = service.Relax(std::move(request));
        ASSERT_TRUE(response.ok()) << response.status();
        // The invariant under swaps: an answer is always attributed to a
        // real published generation, and carries a live outcome.
        EXPECT_GE(response->snapshot->generation(), 1u);
        EXPECT_NE(response->outcome, nullptr);
        EXPECT_FALSE(response->outcome->instances.empty());
        served.fetch_add(1);
      }
    });
  }

  std::thread swapper([&] {
    while (!start.load()) std::this_thread::yield();
    for (int i = 0; i < kSwaps; ++i) {
      service.PublishSnapshot(BuildSnapshot(7));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  start.store(true);
  for (std::thread& thread : submitters) thread.join();
  swapper.join();

  EXPECT_EQ(served.load(),
            static_cast<uint64_t>(kSubmitters) * kRequestsPerThread);
  EXPECT_EQ(service.snapshot()->generation(), 1u + kSwaps);

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, served.load());
  EXPECT_EQ(stats.snapshot_swaps, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.completed);
}

TEST(ServeConcurrency, ReadersFinishOnTheSnapshotTheyStartedWith) {
  SnapshotRegistry registry;
  registry.Publish(BuildSnapshot(7));

  constexpr int kReaders = 3;
  constexpr int kIterations = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::shared_ptr<const Snapshot> snap = registry.Current();
        ASSERT_NE(snap, nullptr);
        const uint64_t generation = snap->generation();
        // Use the pinned snapshot end-to-end; a swap mid-iteration must
        // not invalidate anything we're touching.
        const auto& mapping = snap->ingestion().mappings.front();
        RelaxationOutcome outcome =
            snap->relaxer().RelaxConcept(mapping.second, kNoContext);
        EXPECT_FALSE(outcome.instances.empty());
        EXPECT_EQ(snap->generation(), generation);
      }
    });
  }
  std::thread swapper([&] {
    // do-while: at least one swap always lands, even if a loaded box
    // schedules this thread only after every reader has finished —
    // the generation assertion below must not depend on timing.
    do {
      registry.Publish(BuildSnapshot(7));
    } while (!stop.load());
  });
  for (std::thread& thread : readers) thread.join();
  stop.store(true);
  swapper.join();
  EXPECT_GE(registry.generation(), 2u);
}

TEST(ServeConcurrency, SharedCacheUnderContentionStaysConsistent) {
  std::shared_ptr<Snapshot> snap = BuildSnapshot(7);
  std::vector<ConceptId> queries = FlaggedConcepts(*snap, 8);
  ASSERT_FALSE(queries.empty());

  ServiceOptions options;
  // A cache smaller than the working set: hits, misses, and evictions all
  // happen concurrently. Pinned to strict LRU: under the activity policy
  // the second-hit doorkeeper can reject cold keys outright — zero
  // evictions. ActivitySweepUnderContentionKeepsShardBounded covers that
  // policy.
  options.cache.capacity = 4;
  options.cache.num_shards = 1;
  options.cache.policy.eviction = CachePolicy::Eviction::kLru;
  RelaxationService service(snap, options);

  // Skewed mix: a hot key every other request, cold keys rotating through
  // the rest of the pool. Round-robin over 8 keys in a 4-entry LRU would
  // never hit (pure thrashing); the hot key guarantees hits while the
  // cold tail keeps evictions flowing. Four callers share the one shard.
  constexpr int kCallers = 4;
  constexpr int kPerCaller = 128;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = t; i < kCallers * kPerCaller; i += kCallers) {
        const size_t slot =
            (i % 2 == 0)
                ? 0
                : 1 + (static_cast<size_t>(i) / 2) % (queries.size() - 1);
        RelaxRequest request;
        request.concept_id = queries[slot];
        if (service.Relax(std::move(request)).ok()) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(ok.load(), static_cast<size_t>(kCallers * kPerCaller));
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(service.cache().evictions(), 0u)
      << "the test must actually exercise concurrent eviction";
}

TEST(ServeConcurrency, ActivitySweepUnderContentionKeepsShardBounded) {
  std::shared_ptr<Snapshot> snap = BuildSnapshot(7);
  std::vector<ConceptId> queries = FlaggedConcepts(*snap, 12);
  ASSERT_GE(queries.size(), 12u);

  ServiceOptions options;
  // One tiny shard: every caller contends on the same shard mutex AND the
  // same sweep mutex, so tsan sees Lookup bumps, doorkeeper inserts, and
  // bottom-activity sweeps interleaved on one Entry list.
  options.cache.capacity = 4;
  options.cache.num_shards = 1;
  RelaxationService service(snap, options);

  // Seed pass, sequential for determinism: the first 4 distinct keys fill
  // the shard unconditionally; the remaining 8 arrive full and are
  // first sightings, so the doorkeeper rejects each and records its
  // fingerprint.
  for (ConceptId id : queries) {
    RelaxRequest request;
    request.concept_id = id;
    Result<RelaxResponse> response = service.Relax(request);
    ASSERT_TRUE(response.ok()) << response.status();
  }
  const uint64_t seeded_rejects = service.cache().admission_rejects();
  EXPECT_EQ(seeded_rejects, queries.size() - options.cache.capacity);

  // Storm pass: re-offer every key concurrently. The 8 sketch-recorded
  // cold keys are now second sightings, so their inserts are admitted
  // into the full shard and each admission overflows it into a sweep —
  // racing the hot keys' Lookup-side activity bumps.
  constexpr int kCallers = 4;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = t; i < 512; i += kCallers) {
        RelaxRequest request;
        request.concept_id =
            queries[(i % 2 == 0) ? static_cast<size_t>(i / 2) % 3
                                 : 3 + (static_cast<size_t>(i) / 2) %
                                           (queries.size() - 3)];
        if (service.Relax(std::move(request)).ok()) ok.fetch_add(1);
      }
    });
  }
  // Joined: every Insert (and the sweep it may have kicked off) has
  // finished before the size assertion.
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(ok.load(), 512u);

  const ResultCache& cache = service.cache();
  EXPECT_LE(cache.size(), options.cache.capacity)
      << "a sweep must restore the capacity bound before Insert returns";
  EXPECT_GT(cache.sweeps_completed(), 0u);
  EXPECT_GT(cache.admission_rejects(), 0u);
  EXPECT_EQ(cache.evictions(), cache.activity_evictions())
      << "under the activity policy every eviction is a sweep eviction";
}

TEST(ServeConcurrency, MidFlightPublishDoesNotFanStaleGeneration) {
  std::shared_ptr<Snapshot> snap = BuildSnapshot(7);
  ConceptId query = FlaggedConcepts(*snap, 1).front();
  RelaxationService service(snap, ServiceOptions{});

  RelaxRequest request;
  request.concept_id = query;
  Result<RelaxResponse> cached = service.Relax(request);
  ASSERT_TRUE(cached.ok()) << cached.status();

  // A line framed (and its snapshot pinned) before the swap, answered
  // after it: it must be answered by its own generation, straight from
  // that generation's cache entry.
  RelaxRequest in_flight = request;
  in_flight.snapshot = service.snapshot();
  EXPECT_EQ(service.PublishSnapshot(BuildSnapshot(7)), 2u);
  Result<RelaxResponse> led = service.Relax(in_flight);
  ASSERT_TRUE(led.ok()) << led.status();
  EXPECT_EQ(led->snapshot->generation(), 1u);
  EXPECT_TRUE(led->cache_hit);
  EXPECT_EQ(led->outcome.get(), cached->outcome.get());

  // A request after the swap pins the new snapshot and computes a
  // new-generation key, so it can NOT be handed the stale entry: it must
  // be answered fresh, at generation 2.
  Result<RelaxResponse> late = service.Relax(request);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->snapshot->generation(), 2u);
  EXPECT_FALSE(late->cache_hit)
      << "a post-swap request must not be served a stale-generation result";
  EXPECT_FALSE(late->coalesced);
  EXPECT_EQ(late->outcome->instances, cached->outcome->instances);
}

TEST(ServeConcurrency, RepliesPrintTheSnapshotThatAnswered) {
  // Two different worlds, so a reply printed with the wrong snapshot's
  // names is visibly wrong. Three callers relax and format concurrently,
  // as three event loops do; every few requests a caller publishes the
  // next pooled snapshot between its answer and its formatting, so those
  // replies are formatted after a swap while the other callers race
  // their own answers against that publish.
  constexpr size_t kPublishes = 8;
  std::vector<std::shared_ptr<Snapshot>> pool;
  for (size_t i = 0; i < kPublishes; ++i) {
    pool.push_back(BuildSnapshot(i % 2 == 0 ? 8 : 7));
  }
  std::shared_ptr<Snapshot> initial = BuildSnapshot(7);
  std::vector<ConceptId> queries = FlaggedConcepts(*initial, 12);
  ASSERT_FALSE(queries.empty());
  for (const std::shared_ptr<Snapshot>& snap : pool) {
    ASSERT_GT(snap->dag().num_concepts(), queries.back());
  }

  ServiceOptions options;
  options.cache.capacity = 64;
  RelaxationService service(initial, options);

  struct Reply {
    ConceptId concept_id = kInvalidConcept;
    std::string term;
    std::string text;
    std::optional<Result<RelaxResponse>> response;
    bool swapped_before_print = false;
  };
  constexpr size_t kSubmitters = 3;
  constexpr size_t kPerSubmitter = 30;
  std::vector<Reply> replies(kSubmitters * kPerSubmitter);
  std::atomic<size_t> next_publish{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        Reply& reply = replies[t * kPerSubmitter + i];
        reply.concept_id = queries[(t * 5 + i) % queries.size()];
        reply.term = StrFormat("c%u", reply.concept_id);
        RelaxRequest request;
        request.concept_id = reply.concept_id;
        Result<RelaxResponse> r = service.Relax(std::move(request));
        if (i % 10 == t) {
          const size_t next = next_publish.fetch_add(1);
          if (next < pool.size()) service.PublishSnapshot(pool[next]);
        }
        reply.swapped_before_print =
            r.ok() && service.snapshot() != r->snapshot;
        reply.text = FormatRelaxReply(reply.term, r);
        reply.response = std::move(r);
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();

  size_t swapped = 0;
  for (const Reply& reply : replies) {
    ASSERT_TRUE(reply.response.has_value());
    ASSERT_TRUE(reply.response->ok()) << reply.response->status();
    const RelaxResponse& response = **reply.response;
    EXPECT_EQ(reply.text.rfind("err", 0), std::string::npos) << reply.text;
    ASSERT_NE(response.snapshot, nullptr);
    // The reply must be the pinned snapshot's own answer, named by it.
    RelaxResponse expected = response;
    expected.outcome = std::make_shared<const RelaxationOutcome>(
        response.snapshot->relaxer().RelaxConcept(reply.concept_id,
                                                  kNoContext));
    EXPECT_EQ(reply.text, FormatRelaxReply(reply.term, expected));
    if (reply.swapped_before_print) ++swapped;
  }
  EXPECT_GT(swapped, 0u) << "no reply was printed after a swap";
  EXPECT_EQ(service.Stats().snapshot_swaps,
            std::min(kPublishes, next_publish.load()));
}

TEST(ServeConcurrency, PublishStormKeepsLockOrderAcyclic) {
  // Every lock in the serving layer under fire at once: callers hit the
  // cache shards, a publisher swaps the registry, and a poller reads
  // stats and cache size. With the deadlock detector compiled in
  // (default/asan/tsan presets), any inconsistent acquisition order
  // between the registry, shard, sweep and stats locks aborts the test;
  // afterwards we assert the recorded order graph itself is cycle-free.
  std::shared_ptr<Snapshot> initial = BuildSnapshot(7);
  std::vector<ConceptId> queries = FlaggedConcepts(*initial, 8);
  ASSERT_FALSE(queries.empty());

  ServiceOptions options;
  // Smaller than the per-generation working set (8 keys), so the storm
  // also drives overflow admissions and bottom-activity sweeps: the
  // sweep mutex joins the order graph alongside the shard locks.
  options.cache.capacity = 4;
  options.cache.num_shards = 1;
  RelaxationService service(initial, options);

  constexpr int kSubmitters = 2;
  constexpr int kRequestsPerThread = 80;
  constexpr int kPublishes = 8;

  std::atomic<bool> start{false};
  std::atomic<bool> storming{true};
  std::atomic<uint64_t> resolved{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RelaxRequest request;
        request.concept_id = queries[(t * 17 + i) % queries.size()];
        Result<RelaxResponse> response = service.Relax(std::move(request));
        EXPECT_TRUE(response.ok()) << response.status();
        resolved.fetch_add(1);
      }
    });
  }
  std::thread publisher([&] {
    while (!start.load()) std::this_thread::yield();
    for (int i = 0; i < kPublishes; ++i) {
      service.PublishSnapshot(BuildSnapshot(7));
    }
  });
  std::thread poller([&] {
    while (!start.load()) std::this_thread::yield();
    while (storming.load()) {
      ServiceStatsSnapshot stats = service.Stats();
      EXPECT_LE(stats.cache_hits, stats.completed);
      (void)service.cache().size();   // shard locks, all of them
      (void)service.snapshot();       // registry lock
      std::this_thread::yield();
    }
  });

  start.store(true);
  for (std::thread& thread : submitters) thread.join();
  publisher.join();
  storming.store(false);
  poller.join();

  EXPECT_EQ(resolved.load(),
            static_cast<uint64_t>(kSubmitters) * kRequestsPerThread);
  EXPECT_EQ(service.snapshot()->generation(), 1u + kPublishes);

#ifdef MEDRELAX_DEADLOCK_DEBUG
  // The storm above fed the detector's acquisition-order graph through
  // the Mutex hooks; the documented total order (docs/CONCURRENCY.md)
  // must hold pairwise — no two serving-layer sites may each be ordered
  // before the other.
  DeadlockDetector& detector = DeadlockDetector::Instance();
  const std::vector<int> sites = {
      detector.RegisterSite("SnapshotRegistry::mu"),
      detector.RegisterSite("ResultCache::Shard::mu"),
      detector.RegisterSite("ResultCache::sweep_mu"),
      detector.RegisterSite("ServiceStats::relax_mu"),
  };
  for (int a : sites) {
    for (int b : sites) {
      if (a == b) continue;
      EXPECT_FALSE(detector.PathExists(a, b) && detector.PathExists(b, a))
          << "lock-order cycle between " << detector.SiteName(a) << " and "
          << detector.SiteName(b);
    }
  }
#endif  // MEDRELAX_DEADLOCK_DEBUG
}

TEST(ServeConcurrency, ShutdownRacesSubmitters) {
  std::shared_ptr<Snapshot> snap = BuildSnapshot(7);
  ConceptId query = FlaggedConcepts(*snap, 1).front();

  RelaxationService service(snap, ServiceOptions{});

  std::atomic<bool> start{false};
  std::vector<std::thread> submitters;
  std::atomic<uint64_t> resolved{0};
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        RelaxRequest request;
        request.concept_id = query;
        Result<RelaxResponse> response = service.Relax(std::move(request));
        // Answered, or refused once the shutdown landed — nothing else.
        if (!response.ok()) {
          EXPECT_TRUE(response.status().IsFailedPrecondition())
              << response.status();
        }
        resolved.fetch_add(1);
      }
    });
  }
  start.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(resolved.load(), 400u);
}

}  // namespace
}  // namespace medrelax
