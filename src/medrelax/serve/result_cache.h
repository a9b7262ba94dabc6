#ifndef MEDRELAX_SERVE_RESULT_CACHE_H_
#define MEDRELAX_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "medrelax/common/mutex.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {

/// Eviction strategy of the result cache below.
///
/// `kDecayedActivity` borrows the decaying-activity machinery of the qute
/// QBF solver (VSIDS-style variable activities plus activity-ranked
/// constraint-DB reduction sweeps):
///
///   * Every hit adds the cache's current *bump increment* to the entry's
///     activity score. Instead of decaying every entry geometrically on
///     every hit (an O(n) pass), the bump itself grows by 1/decay_factor —
///     numerically identical ordering, amortized O(1). When the increment
///     overflows a fixed threshold, all activities and the increment are
///     rescaled down together, preserving their ratios.
///   * A *second-hit admission filter*: once a shard is full, a key seen
///     for the first time is recorded in a small recency sketch and
///     rejected; only a key seen twice within the sketch's memory is
///     admitted. One-hit wonders (scans, crawlers, key-space walks) stop
///     evicting the established hot set. While the shard has free space,
///     inserts are admitted unconditionally, so a cache that never fills
///     behaves exactly like LRU.
///   * A *periodic sweep* instead of per-insert LRU eviction: when an
///     admitted insert pushes a shard over capacity, the bottom
///     `sweep_fraction` of entries ranked by activity (least-recently-used
///     breaking ties) is evicted in one pass.
///
/// `kLru` is the pre-policy behavior, kept selectable for golden parity
/// and as the baseline the skewed-mix benchmark gates against.
struct CachePolicy {
  enum class Eviction : uint8_t {
    kLru,
    kDecayedActivity,
  };

  Eviction eviction = Eviction::kDecayedActivity;

  /// Geometric decay per hit: the bump increment grows by 1/decay_factor,
  /// so older activity contributions fade relative to fresh ones. qute
  /// ships 0.95 for its constraint activities; the same value holds here
  /// (~4500 hits between rescales at the threshold below).
  double decay_factor = 0.95;

  /// Fraction of a shard evicted per sweep (bottom of the activity
  /// ranking). Larger fractions sweep less often but evict deeper into
  /// the warm set.
  double sweep_fraction = 0.25;

  /// Slots in the per-shard admission sketch (rounded up to a power of
  /// two). Sized to the scan burst it must absorb: a slot remembers one
  /// recently-seen fingerprint, and a colliding newcomer overwrites it.
  size_t admission_sketch_slots = 64;
};

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

/// The second-hit admission doorkeeper: a tiny direct-mapped table of key
/// fingerprints. `SeenOrRecord` answers "was this fingerprint recorded
/// since it last fell out of its slot?" and records it when not. A false
/// return means first sighting (candidate should be rejected once);
/// collisions merely overwrite — a false "seen" requires two keys with
/// identical 64-bit fingerprints, a false "new" just delays admission by
/// one extra sighting.
///
/// Not internally synchronized: callers embed one sketch per shard and
/// consult it under that shard's lock.
class AdmissionSketch {
 public:
  explicit AdmissionSketch(size_t slots)
      : slots_(std::bit_ceil(slots < 2 ? size_t{2} : slots), 0),
        mask_(slots_.size() - 1) {}

  /// True when `fingerprint` is already recorded (second sighting —
  /// admit); otherwise records it and returns false (first sighting).
  [[nodiscard]] bool SeenOrRecord(uint64_t fingerprint) {
    if (fingerprint == 0) fingerprint = 1;  // 0 marks an empty slot
    uint64_t& slot = slots_[fingerprint & mask_];
    if (slot == fingerprint) return true;
    slot = fingerprint;
    return false;
  }

  void Clear() { slots_.assign(slots_.size(), 0); }

  [[nodiscard]] size_t slot_count() const { return slots_.size(); }

 private:
  std::vector<uint64_t> slots_;
  uint64_t mask_;
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
  /// Eviction policy (CachePolicy above). The decayed-activity
  /// default keeps the hot set resident under skewed scan-polluted
  /// traffic; `kLru` restores the pre-policy behavior exactly. The
  /// policy never changes what an answer contains, so it is deliberately
  /// not part of the options fingerprint.
  CachePolicy policy;
};

/// A sharded cache of finished relaxation outcomes. Values are
/// shared_ptr-to-const, so a hit hands back the cached outcome without
/// copying and eviction never invalidates a response a client still holds.
///
/// Under the default decayed-activity policy (see CachePolicy) a hit
/// bumps the entry's activity with a geometrically growing increment,
/// first-time keys are rejected by a second-hit admission sketch while
/// the shard is full, and overflowing shards are trimmed by a
/// bottom-activity sweep instead of strict LRU eviction. Under `kLru`
/// the cache behaves exactly as before the policy existed.
///
/// Thread-safe: each shard holds its own mutex; sweeps additionally
/// serialize on a cache-level sweep mutex acquired *before* the swept
/// shard's mutex (docs/CONCURRENCY.md); counters are atomics.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached outcome for `key`, promoting it to most-recently-used and
  /// (under the activity policy) bumping its activity; nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const RelaxationOutcome> Lookup(
      const CacheKey& key) MEDRELAX_EXCLUDES(sweep_mu_);

  /// Inserts (or refreshes) `key`. LRU policy: evicts the shard's
  /// least-recently-used entry when the shard is at capacity. Activity
  /// policy: a first-seen key against a full shard is rejected by the
  /// admission sketch; an admitted overflow triggers a bottom-activity
  /// sweep of the shard.
  void Insert(const CacheKey& key,
              std::shared_ptr<const RelaxationOutcome> outcome)
      MEDRELAX_EXCLUDES(sweep_mu_);

  /// Drops every entry and resets the admission sketches (the counters
  /// survive).
  void Clear() MEDRELAX_EXCLUDES(sweep_mu_);

  /// Current number of cached entries across all shards.
  [[nodiscard]] size_t size() const;

  [[nodiscard]] uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// All evictions, regardless of policy (LRU pop-backs plus sweep
  /// victims).
  [[nodiscard]] uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Inserts rejected by the second-hit admission filter.
  [[nodiscard]] uint64_t admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  /// Bottom-activity sweep passes completed.
  [[nodiscard]] uint64_t sweeps_completed() const {
    return sweeps_completed_.load(std::memory_order_relaxed);
  }
  /// Entries evicted by sweeps (subset of evictions()).
  [[nodiscard]] uint64_t activity_evictions() const {
    return activity_evictions_.load(std::memory_order_relaxed);
  }
  /// Activity rescales performed when the bump increment overflowed.
  [[nodiscard]] uint64_t rescales() const {
    return rescales_.load(std::memory_order_relaxed);
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
    /// Decayed-activity score; meaningful only under kDecayedActivity.
    double activity = 0.0;
  };
  struct Shard {
    /// One detector site for all shards: shards are never nested, and a
    /// per-shard order against the rest of the system is what matters.
    mutable Mutex mu{"ResultCache::Shard::mu"};
    /// Front = most recently used; back = eviction candidate / sweep
    /// tie-break loser.
    std::list<Entry> lru MEDRELAX_GUARDED_BY(mu);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index MEDRELAX_GUARDED_BY(mu);
    /// Current activity increment; grows by 1/decay_factor per hit so
    /// older contributions decay relative to fresh ones.
    double bump MEDRELAX_GUARDED_BY(mu) = 1.0;
    /// Second-hit admission doorkeeper, consulted only when the shard is
    /// full.
    AdmissionSketch sketch MEDRELAX_GUARDED_BY(mu){0};
  };

  /// Delegation target: sizing is computed once and lands in the const
  /// members above the shard vector that shares it.
  ResultCache(const ResultCacheOptions& options, ShardSizing sizing);

  [[nodiscard]] Shard& ShardFor(const CacheKey& key) {
    // The low hash bits pick the bucket inside the shard's map; use the
    // high bits for shard selection so the two stay independent.
    return shards_[(HashCacheKey(key) >> 48) & shard_mask_];
  }

  /// Bumps `entry`'s activity with the shard's current increment, growing
  /// the increment and rescaling the whole shard when it overflows.
  void BumpActivity(Shard& shard, Entry& entry)
      MEDRELAX_REQUIRES(shard.mu);
  /// Evicts the bottom-activity fraction of `shard` (recency breaking
  /// ties, least recent first). Serializes on sweep_mu_, then re-acquires
  /// the shard mutex — sweep_mu_ is ordered before every shard mutex.
  void SweepShard(Shard& shard) MEDRELAX_EXCLUDES(sweep_mu_);

  const size_t shard_capacity_;
  const uint64_t shard_mask_;
  const CachePolicy policy_;
  /// Serializes sweeps across the cache so concurrent overflowing inserts
  /// do not stampede the same shard; acquired before the shard mutex.
  mutable Mutex sweep_mu_{"ResultCache::sweep_mu"};
  std::vector<Shard> shards_;  // lint:allow(guarded-by) per-shard mu inside
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> sweeps_completed_{0};
  std::atomic<uint64_t> activity_evictions_{0};
  std::atomic<uint64_t> rescales_{0};
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_RESULT_CACHE_H_
