#include "medrelax/serve/result_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace medrelax {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, stable across platforms.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t MixIn(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ Mix64(value));
}

ShardSizing SizeShards(size_t requested_shards, size_t capacity) {
  size_t shards = std::bit_ceil(std::max<size_t>(requested_shards, 1));
  if (capacity > 0 && shards > capacity) shards = std::bit_floor(capacity);
  return {.shard_count = shards,
          .per_shard_capacity =
              capacity == 0 ? 0 : std::max<size_t>(1, capacity / shards)};
}

/// Activity magnitude that triggers a rescale, and the factor applied.
/// Doubles hold ~1e308, so 1e100 leaves ample headroom for the activities
/// themselves (entry activity <= bump * hits-since-rescale).
constexpr double kActivityRescaleThreshold = 1e100;
constexpr double kActivityRescaleFactor = 1e-100;

}  // namespace

uint64_t HashCacheKey(const CacheKey& key) {
  uint64_t h = Mix64(key.generation);
  h = MixIn(h, key.options_fingerprint);
  h = MixIn(h, (static_cast<uint64_t>(key.concept_id) << 32) |
                   static_cast<uint64_t>(key.context));
  h = MixIn(h, key.top_k);
  return h;
}

uint64_t FingerprintOptions(const RelaxationOptions& relaxation,
                            const SimilarityOptions& similarity) {
  uint64_t h = Mix64(0x6d656472656c6178ULL);  // "medrelax"
  h = MixIn(h, relaxation.radius);
  h = MixIn(h, relaxation.dynamic_radius ? 1 : 0);
  h = MixIn(h, relaxation.max_radius);
  h = MixIn(h, relaxation.top_k);
  h = MixIn(h, std::bit_cast<uint64_t>(similarity.generalization_weight));
  h = MixIn(h, std::bit_cast<uint64_t>(similarity.specialization_weight));
  // 4U is the bit of the removed, always-on geometry memo: mixing it in
  // keeps the fingerprints of images written before its removal.
  h = MixIn(h, (similarity.use_path_penalty ? 1U : 0U) |
                   (similarity.use_context ? 2U : 0U) | 4U);
  return h;
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : ResultCache(options, SizeShards(options.num_shards, options.capacity)) {}

ResultCache::ResultCache(const ResultCacheOptions& options, ShardSizing sizing)
    : shard_capacity_(sizing.per_shard_capacity),
      shard_mask_(sizing.shard_count - 1),
      policy_(options.policy),
      shards_(sizing.shard_count) {
  for (Shard& shard : shards_) {
    shard.sketch = AdmissionSketch(policy_.admission_sketch_slots);
  }
}

void ResultCache::BumpActivity(Shard& shard, Entry& entry) {
  entry.activity += shard.bump;
  // qute-style geometric decay without an O(n) decay pass: growing the
  // increment by 1/decay_factor makes every earlier contribution smaller
  // *relative to* new ones by exactly the decay factor per hit.
  shard.bump /= policy_.decay_factor;
  if (shard.bump > kActivityRescaleThreshold) {
    for (Entry& e : shard.lru) e.activity *= kActivityRescaleFactor;
    shard.bump *= kActivityRescaleFactor;
    rescales_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const RelaxationOutcome> ResultCache::Lookup(
    const CacheKey& key) {
  if (shard_capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Recency is maintained under both policies: it is the eviction order
  // for kLru and the tie-break (plus sweep determinism) for activity.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (policy_.eviction == CachePolicy::Eviction::kDecayedActivity) {
    BumpActivity(shard, *it->second);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->outcome;
}

void ResultCache::Insert(const CacheKey& key,
                         std::shared_ptr<const RelaxationOutcome> outcome) {
  if (shard_capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  bool needs_sweep = false;
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->outcome = std::move(outcome);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (policy_.eviction == CachePolicy::Eviction::kDecayedActivity) {
        BumpActivity(shard, *it->second);
      }
      return;
    }
    const bool activity =
        policy_.eviction == CachePolicy::Eviction::kDecayedActivity;
    const bool full = shard.lru.size() >= shard_capacity_;
    if (activity && full && !shard.sketch.SeenOrRecord(HashCacheKey(key))) {
      // Full shard, first sighting: don't let a one-hit wonder push out
      // an established entry. The key is now in the sketch, so a second
      // sighting admits it.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    shard.lru.push_front(Entry{key, std::move(outcome), shard.bump});
    shard.index.emplace(key, shard.lru.begin());
    // A doorkeeper admission means the key was sighted twice; credit the
    // second sighting as a touch so a fresh admit can compete with
    // once-hit residents in the sweep below instead of being its first
    // victim.
    if (activity && full) BumpActivity(shard, shard.lru.front());
    if (shard.lru.size() > shard_capacity_) {
      if (policy_.eviction == CachePolicy::Eviction::kLru) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        needs_sweep = true;
      }
    }
  }
  // The sweep re-acquires locks in the documented order (sweep_mu_ before
  // the shard mutex), so the insert's shard lock is released first.
  if (needs_sweep) SweepShard(shard);
}

void ResultCache::SweepShard(Shard& shard) {
  MutexLock sweep_lock(sweep_mu_);
  MutexLock lock(shard.mu);
  if (shard.lru.size() <= shard_capacity_) return;  // a sweep raced us
  // Evict at least the overflow, at most the configured bottom fraction.
  const size_t over = shard.lru.size() - shard_capacity_;
  const double fraction =
      std::clamp(policy_.sweep_fraction, 0.0, 1.0);
  const size_t target = std::max<size_t>(
      over, static_cast<size_t>(fraction *
                                static_cast<double>(shard.lru.size())));
  // Rank every entry by activity, least-recently-used first among equal
  // activities: walking the list back-to-front and stable-sorting keeps
  // the LRU order as the deterministic tie-break.
  std::vector<std::list<Entry>::iterator> ranked;
  ranked.reserve(shard.lru.size());
  for (auto it = shard.lru.end(); it != shard.lru.begin();) {
    ranked.push_back(--it);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a->activity < b->activity;
                   });
  const size_t victims = std::min(target, ranked.size());
  for (size_t i = 0; i < victims; ++i) {
    shard.index.erase(ranked[i]->key);
    shard.lru.erase(ranked[i]);
  }
  evictions_.fetch_add(victims, std::memory_order_relaxed);
  activity_evictions_.fetch_add(victims, std::memory_order_relaxed);
  sweeps_completed_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bump = 1.0;
    shard.sketch.Clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace medrelax
