#ifndef MEDRELAX_SERVE_RESULT_CACHE_H_
#define MEDRELAX_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "medrelax/common/mutex.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {

/// Shard sizing of the result cache (SizeShards in result_cache.cc): the
/// shard count rounds up to a power of two (mask selection), then clamps
/// down when the total capacity is smaller than the shard count —
/// per-shard capacities are floor-divided with a minimum of one entry, so
/// without the clamp a capacity-1 cache with 8 shards would hold 8
/// entries. The invariant is shard_count * per_shard_capacity <=
/// capacity; capacity 0 means unbounded shards (per_shard_capacity 0).
struct ShardSizing {
  size_t shard_count;
  size_t per_shard_capacity;
};

/// Identity of one cacheable relaxation answer. Repeated [query term,
/// context] traffic is the dominant workload shape, so the key is the
/// *resolved* concept (term mapping is deterministic per snapshot) plus
/// everything that can change the answer:
///   - k (the paper's top-k is part of the result shape, not a suffix);
///   - an options fingerprint (similarity + relaxation knobs), so two
///     differently configured snapshots never share entries;
///   - the snapshot generation, so a snapshot swap implicitly invalidates
///     every older entry — stale keys simply stop being looked up and age
///     out of the cache.
struct CacheKey {
  ConceptId concept_id = kInvalidConcept;
  ContextId context = kNoContext;
  uint64_t top_k = 0;
  uint64_t options_fingerprint = 0;
  uint64_t generation = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// 64-bit mix of a cache key (splitmix64 over the fields); also selects
/// the shard.
[[nodiscard]] uint64_t HashCacheKey(const CacheKey& key);

/// Hash functor over CacheKey for the cache shards' index below.
struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    return static_cast<size_t>(HashCacheKey(key));
  }
};

/// Order-insensitive fingerprint of the knobs that shape an answer.
[[nodiscard]] uint64_t FingerprintOptions(const RelaxationOptions& relaxation,
                                          const SimilarityOptions& similarity);

/// Knobs of the serving result cache.
struct ResultCacheOptions {
  /// Total entries across all shards; 0 disables caching (every Lookup
  /// misses, Insert is a no-op). The bound is global: shard capacities
  /// are sized so their sum never exceeds this value.
  size_t capacity = 4096;
  /// Lock shards (rounded up to a power of two, then clamped so tiny
  /// capacities still respect the global bound) so concurrent callers
  /// (the event loops) rarely contend on one mutex.
  size_t num_shards = 8;
};

/// A sharded LRU cache of finished relaxation outcomes. Values are
/// shared_ptr-to-const, so a hit hands back the cached outcome without
/// copying and eviction never invalidates a response a client still holds.
/// A hit moves its entry to the front of its shard's list; an insert into
/// a full shard evicts that shard's least-recently-used entry.
///
/// Thread-safe: each shard holds its own mutex and no operation holds two
/// at once (docs/CONCURRENCY.md); the eviction counter is an atomic. Hits
/// and misses are counted once, by the service (ServiceStats).
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached outcome for `key`, promoting it to most-recently-used;
  /// nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const RelaxationOutcome> Lookup(
      const CacheKey& key);

  /// Inserts (or refreshes) `key`, evicting the shard's least-recently-used
  /// entry when the shard is at capacity.
  void Insert(const CacheKey& key,
              std::shared_ptr<const RelaxationOutcome> outcome);

  /// Current number of cached entries across all shards.
  [[nodiscard]] size_t size() const;

  [[nodiscard]] uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Entries one shard may hold. Shard capacities are floor-divided from
  /// the total, so num_shards() * shard_capacity() <= the configured
  /// capacity always holds.
  [[nodiscard]] size_t shard_capacity() const { return shard_capacity_; }
  [[nodiscard]] size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const RelaxationOutcome> outcome;
  };
  struct Shard {
    /// One detector site for all shards: shards are never nested, and a
    /// per-shard order against the rest of the system is what matters.
    mutable Mutex mu{"ResultCache::Shard::mu"};
    /// Front = most recently used; back = eviction candidate.
    std::list<Entry> lru MEDRELAX_GUARDED_BY(mu);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index MEDRELAX_GUARDED_BY(mu);
  };

  /// Delegation target: sizing is computed once and lands in the const
  /// members above the shard vector that shares it.
  explicit ResultCache(ShardSizing sizing);

  [[nodiscard]] Shard& ShardFor(const CacheKey& key) {
    // The low hash bits pick the bucket inside the shard's map; use the
    // high bits for shard selection so the two stay independent.
    return shards_[(HashCacheKey(key) >> 48) & shard_mask_];
  }

  const size_t shard_capacity_;
  const uint64_t shard_mask_;
  std::vector<Shard> shards_;  // lint:allow(guarded-by) per-shard mu inside
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_RESULT_CACHE_H_
