// Unit tests of the serving result cache: eviction policies (LRU and
// decayed activity), admission filtering, key semantics (options
// fingerprint, snapshot generation), sharding, and counters.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/serve/result_cache.h"

namespace medrelax {
namespace {

std::shared_ptr<const RelaxationOutcome> MakeOutcome(ConceptId query) {
  auto outcome = std::make_shared<RelaxationOutcome>();
  outcome->query_concept = query;
  return outcome;
}

CacheKey KeyFor(ConceptId concept_id, uint64_t generation = 1,
                uint64_t fingerprint = 42, ContextId context = 0,
                uint64_t k = 10) {
  return CacheKey{concept_id, context, k, fingerprint, generation};
}

/// The pre-policy configuration: strict LRU eviction, no admission
/// filter. The legacy eviction-order tests pin this explicitly so they
/// keep testing LRU as the selectable fallback.
ResultCacheOptions LruOptions(size_t capacity, size_t num_shards) {
  ResultCacheOptions options;
  options.capacity = capacity;
  options.num_shards = num_shards;
  options.policy.eviction = CachePolicy::Eviction::kLru;
  return options;
}

ResultCacheOptions ActivityOptions(size_t capacity, size_t num_shards,
                                   double sweep_fraction = 0.25) {
  ResultCacheOptions options;
  options.capacity = capacity;
  options.num_shards = num_shards;
  options.policy.eviction = CachePolicy::Eviction::kDecayedActivity;
  options.policy.sweep_fraction = sweep_fraction;
  return options;
}

TEST(ResultCache, LookupReturnsInsertedOutcome) {
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/1));
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(1), MakeOutcome(1));
  auto hit = cache.Lookup(KeyFor(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->query_concept, 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedInOrder) {
  // One shard of capacity 3 so the LRU order is fully observable.
  ResultCache cache(LruOptions(/*capacity=*/3, /*num_shards=*/1));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  cache.Insert(KeyFor(2), MakeOutcome(2));
  cache.Insert(KeyFor(3), MakeOutcome(3));
  // Touch 1 so 2 becomes the eviction candidate.
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(4), MakeOutcome(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr) << "LRU entry should be gone";
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(4)), nullptr);
  // The verification lookups above reordered recency to 4 > 3 > 1, so
  // eviction proceeds 1 -> 3.
  cache.Insert(KeyFor(5), MakeOutcome(5));
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(6), MakeOutcome(6));
  EXPECT_EQ(cache.Lookup(KeyFor(3)), nullptr);
}

TEST(ResultCache, ReinsertRefreshesRecencyAndValue) {
  ResultCache cache(LruOptions(/*capacity=*/2, /*num_shards=*/1));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  cache.Insert(KeyFor(2), MakeOutcome(2));
  cache.Insert(KeyFor(1), MakeOutcome(99));  // refresh, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Insert(KeyFor(3), MakeOutcome(3));
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr) << "2 was the LRU after refresh";
  auto refreshed = cache.Lookup(KeyFor(1));
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->query_concept, 99u);
}

TEST(ResultCache, DifferentOptionsFingerprintMisses) {
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/1));
  cache.Insert(KeyFor(1, /*generation=*/1, /*fingerprint=*/42),
               MakeOutcome(1));
  EXPECT_EQ(cache.Lookup(KeyFor(1, 1, /*fingerprint=*/43)), nullptr)
      << "a snapshot with different knobs must not share answers";
  EXPECT_NE(cache.Lookup(KeyFor(1, 1, 42)), nullptr);
}

TEST(ResultCache, DifferentGenerationMisses) {
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/1));
  cache.Insert(KeyFor(1, /*generation=*/1), MakeOutcome(1));
  EXPECT_EQ(cache.Lookup(KeyFor(1, /*generation=*/2)), nullptr)
      << "a snapshot swap must invalidate older entries";
}

TEST(ResultCache, KAndContextArePartOfTheKey) {
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/1));
  cache.Insert(KeyFor(1, 1, 42, /*context=*/0, /*k=*/10), MakeOutcome(1));
  EXPECT_EQ(cache.Lookup(KeyFor(1, 1, 42, /*context=*/1, /*k=*/10)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 1, 42, /*context=*/0, /*k=*/5)), nullptr);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(ActivityOptions(/*capacity=*/0, /*num_shards=*/4));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ShardCountRoundsUpToPowerOfTwo) {
  ResultCache cache(ActivityOptions(/*capacity=*/64, /*num_shards=*/5));
  EXPECT_EQ(cache.num_shards(), 8u);
  EXPECT_EQ(cache.shard_capacity(), 8u);
  ResultCache one(ActivityOptions(/*capacity=*/1, /*num_shards=*/8));
  EXPECT_EQ(one.shard_capacity(), 1u) << "every shard stays usable";
}

TEST(ResultCache, ClearDropsEntriesKeepsCounters) {
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/2));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  cache.Insert(KeyFor(2), MakeOutcome(2));
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
}

TEST(ResultCache, EvictedEntryStaysAliveForHolders) {
  ResultCache cache(LruOptions(/*capacity=*/1, /*num_shards=*/1));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  auto held = cache.Lookup(KeyFor(1));
  ASSERT_NE(held, nullptr);
  cache.Insert(KeyFor(2), MakeOutcome(2));  // evicts key 1
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_EQ(held->query_concept, 1u) << "shared_ptr keeps the answer valid";
}

TEST(ResultCache, GlobalCapacityBoundHoldsForTinyCapacities) {
  // Regression: per-shard capacities used to be rounded *up* from the
  // total, so capacity=1 over 8 shards could hold 8 entries. The bound
  // is global: num_shards * shard_capacity <= capacity, always.
  for (size_t capacity : {1u, 2u, 3u, 5u, 6u, 10u, 64u, 4096u}) {
    for (size_t shards : {1u, 4u, 5u, 8u, 16u}) {
      ResultCache cache(LruOptions(capacity, shards));
      EXPECT_LE(cache.num_shards() * cache.shard_capacity(), capacity)
          << "capacity=" << capacity << " num_shards=" << shards;
      EXPECT_GE(cache.shard_capacity(), 1u);
    }
  }
  // The concrete former failure: 8 shards of rounded-up capacity 1 held
  // 8 entries against a configured total of 1.
  ResultCache one(LruOptions(/*capacity=*/1, /*num_shards=*/8));
  for (ConceptId id = 1; id <= 16; ++id) one.Insert(KeyFor(id), MakeOutcome(id));
  EXPECT_LE(one.size(), 1u);
}

TEST(ResultCache, SecondHitAdmissionFiltersFirstTimers) {
  ResultCache cache(ActivityOptions(/*capacity=*/2, /*num_shards=*/1));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  cache.Insert(KeyFor(2), MakeOutcome(2));
  ASSERT_EQ(cache.size(), 2u);

  // First sighting of a new key against a full shard: rejected, the
  // residents stay.
  cache.Insert(KeyFor(3), MakeOutcome(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.admission_rejects(), 1u);
  EXPECT_EQ(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(2)), nullptr);

  // Second sighting: admitted, and the overflow triggers a sweep.
  cache.Insert(KeyFor(3), MakeOutcome(3));
  EXPECT_NE(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_EQ(cache.admission_rejects(), 1u);
  EXPECT_GE(cache.sweeps_completed(), 1u);
  EXPECT_GE(cache.activity_evictions(), 1u);
  EXPECT_LE(cache.size(), 2u);
}

TEST(ResultCache, AdmissionNeverFiltersWhileShardHasRoom) {
  // Golden-parity property: a cache that never fills behaves exactly
  // like LRU — every insert is admitted, no sweeps fire.
  ResultCache cache(ActivityOptions(/*capacity=*/8, /*num_shards=*/1));
  for (ConceptId id = 1; id <= 8; ++id) {
    cache.Insert(KeyFor(id), MakeOutcome(id));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_EQ(cache.sweeps_completed(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ResultCache, SweepEvictsBottomActivityFractionNotLruOrder) {
  // capacity 4, sweep half: the sweep must rank by activity, with the
  // LRU end losing ties — not by recency alone.
  ResultCache cache(ActivityOptions(/*capacity=*/4, /*num_shards=*/1,
                                    /*sweep_fraction=*/0.5));
  for (ConceptId id = 1; id <= 4; ++id) {
    cache.Insert(KeyFor(id), MakeOutcome(id));
  }
  // Key 1 is hammered first (hot), then a single touch each for 2..4:
  // key 1 ends up *least recently used* but *highest activity*.
  for (int i = 0; i < 5; ++i) EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(4)), nullptr);

  // Admit key 5 through the doorkeeper; the overflow sweeps half the
  // shard. Victims are the two lowest-activity entries (2 and 3 — one
  // old touch each, and 2's was earliest); the LRU entry (1) survives
  // on activity, and the fresh admit (5, credited two sightings)
  // survives too.
  cache.Insert(KeyFor(5), MakeOutcome(5));
  cache.Insert(KeyFor(5), MakeOutcome(5));
  EXPECT_GE(cache.sweeps_completed(), 1u);
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr)
      << "highest-activity entry must survive despite being LRU";
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(4)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(5)), nullptr);
}

TEST(ResultCache, DecayRescalePreservesActivityOrder) {
  // ~4500 hits grow the bump increment past the 1e100 rescale threshold
  // (bump *= 1/0.95 per hit). The rescale must preserve relative
  // activities: the hammered key stays the hottest afterwards.
  ResultCache cache(ActivityOptions(/*capacity=*/4, /*num_shards=*/1));
  cache.Insert(KeyFor(1), MakeOutcome(1));
  cache.Insert(KeyFor(2), MakeOutcome(2));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_NE(cache.Lookup(KeyFor(1)), nullptr);
  }
  EXPECT_GE(cache.rescales(), 1u);

  // Fill the shard, then admit a newcomer: the sweep's victim must be a
  // cold entry, never key 1, whose pre-rescale activity dominates.
  cache.Insert(KeyFor(3), MakeOutcome(3));
  cache.Insert(KeyFor(4), MakeOutcome(4));
  cache.Insert(KeyFor(5), MakeOutcome(5));
  cache.Insert(KeyFor(5), MakeOutcome(5));
  EXPECT_GE(cache.sweeps_completed(), 1u);
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr)
      << "rescale lost the hot entry's accumulated activity";
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr)
      << "the pre-rescale cold entry should have decayed to nothing";
}

TEST(AdmissionSketch, SecondSightingIsSeen) {
  AdmissionSketch sketch(16);
  EXPECT_FALSE(sketch.SeenOrRecord(0xdeadbeefULL));
  EXPECT_TRUE(sketch.SeenOrRecord(0xdeadbeefULL));
  sketch.Clear();
  EXPECT_FALSE(sketch.SeenOrRecord(0xdeadbeefULL));
}

TEST(AdmissionSketch, CollidingFingerprintOverwritesSlot) {
  AdmissionSketch sketch(4);  // slot = fingerprint & 3
  EXPECT_FALSE(sketch.SeenOrRecord(0x10));  // slot 0
  EXPECT_FALSE(sketch.SeenOrRecord(0x20));  // slot 0: overwrites 0x10
  EXPECT_FALSE(sketch.SeenOrRecord(0x10))
      << "an overwritten fingerprint is forgotten, not remembered";
  EXPECT_TRUE(sketch.SeenOrRecord(0x10));
}

TEST(FingerprintOptions, SensitiveToEveryKnob) {
  RelaxationOptions relaxation;
  SimilarityOptions similarity;
  const uint64_t base = FingerprintOptions(relaxation, similarity);
  EXPECT_EQ(base, FingerprintOptions(relaxation, similarity))
      << "fingerprint must be deterministic";

  std::vector<uint64_t> variants;
  {
    RelaxationOptions r = relaxation;
    r.radius = 5;
    variants.push_back(FingerprintOptions(r, similarity));
    r = relaxation;
    r.dynamic_radius = false;
    variants.push_back(FingerprintOptions(r, similarity));
    r = relaxation;
    r.max_radius = 7;
    variants.push_back(FingerprintOptions(r, similarity));
    r = relaxation;
    r.top_k = 3;
    variants.push_back(FingerprintOptions(r, similarity));
  }
  {
    SimilarityOptions s = similarity;
    s.generalization_weight = 0.8;
    variants.push_back(FingerprintOptions(relaxation, s));
    s = similarity;
    s.specialization_weight = 0.7;
    variants.push_back(FingerprintOptions(relaxation, s));
    s = similarity;
    s.use_path_penalty = false;
    variants.push_back(FingerprintOptions(relaxation, s));
    s = similarity;
    s.use_context = false;
    variants.push_back(FingerprintOptions(relaxation, s));
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i], base) << "knob " << i << " not fingerprinted";
  }
}

}  // namespace
}  // namespace medrelax
