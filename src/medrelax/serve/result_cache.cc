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
    : ResultCache(SizeShards(options.num_shards, options.capacity)) {}

ResultCache::ResultCache(ShardSizing sizing)
    : shard_capacity_(sizing.per_shard_capacity),
      shard_mask_(sizing.shard_count - 1),
      shards_(sizing.shard_count) {}

std::shared_ptr<const RelaxationOutcome> ResultCache::Lookup(
    const CacheKey& key) {
  if (shard_capacity_ == 0) return nullptr;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->outcome;
}

void ResultCache::Insert(const CacheKey& key,
                         std::shared_ptr<const RelaxationOutcome> outcome) {
  if (shard_capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->outcome = std::move(outcome);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(outcome)});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
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
