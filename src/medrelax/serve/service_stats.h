#ifndef MEDRELAX_SERVE_SERVICE_STATS_H_
#define MEDRELAX_SERVE_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "medrelax/common/mutex.h"
#include "medrelax/relax/relax_stats.h"

namespace medrelax {

/// A coherent copy of the service counters at one instant, safe to read,
/// print, and diff without synchronization.
struct ServiceStatsSnapshot {
  /// log2-microsecond end-to-end latency histogram: bucket i counts
  /// requests with latency < 2^i microseconds (the last bucket is
  /// unbounded). Covers 1 us .. ~32 s.
  static constexpr size_t kLatencyBuckets = 16;

  uint64_t requests = 0;          ///< Relax calls with a valid timeout
  uint64_t completed = 0;         ///< answered (hit or computed)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;      ///< answered by running the relaxer
  uint64_t rejected_deadline = 0; ///< expired before relaxation
  uint64_t failed = 0;            ///< mapping/validation errors
  uint64_t snapshot_swaps = 0;
  /// RELOADs that produced and published a new snapshot (failed reloads
  /// leave the counter alone — the old generation keeps serving).
  uint64_t reloads_completed = 0;
  /// Microseconds the most recent image map-and-rehydrate took (boot or
  /// RELOAD); 0 until one is recorded. Wall-clock, so outside the
  /// deterministic ToString subset.
  uint64_t image_load_us = 0;
  /// Term mapping of RELAX-by-term requests: wall time spent in the
  /// snapshot's mapper, and the number of terms it ran on (mapped or
  /// not). Requests by concept id add to neither. Wall-clock, so outside
  /// the deterministic ToString subset with the count that gives it a
  /// per-term mean.
  uint64_t map_ns = 0;
  uint64_t map_terms = 0;
  /// Transport (TCP frontend) counters. Deliberately outside the
  /// deterministic ToString subset: the same scripted session must
  /// produce one transcript over stdin (0 connections) and TCP (1).
  uint64_t connections_opened = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;  ///< over the connection cap
  uint64_t lines_rejected = 0;        ///< oversized-line disconnects
  std::array<uint64_t, kLatencyBuckets> latency_buckets{};
  /// Relaxer-level instrumentation accumulated over every cache miss
  /// (the PR 2 RelaxStats plumbing, aggregated service-wide).
  RelaxStats relax;

  /// Multi-line human-readable block (one `key=value` per line, stable
  /// order), used by the medrelax_server STATS verb. Latency buckets and
  /// RelaxStats timings are wall-clock-dependent, so `deterministic_only`
  /// omits them for golden-file diffs.
  [[nodiscard]] std::string ToString(bool deterministic_only = false) const;
};

/// Lock-free counter block every service entry point reports into.
/// Counters are relaxed atomics: totals are exact once the writers are
/// quiescent, and monotone (never torn) while they run. The RelaxStats
/// aggregate is mutex-guarded (it is a plain struct of many fields).
class ServiceStats {
 public:
  ServiceStats() = default;
  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  /// A request passed its timeout check and is being served.
  void RecordRequest();
  void RecordRejectedDeadline();
  /// A request was answered; `latency_ns` is receipt-to-answer wall time.
  void RecordCompleted(bool cache_hit, uint64_t latency_ns);
  /// Relaxer instrumentation of one computed (cache-miss) answer.
  void RecordRelaxStats(const RelaxStats& stats) MEDRELAX_EXCLUDES(relax_mu_);
  void RecordFailed();
  /// The mapper ran on one query term and took `map_ns` nanoseconds.
  void RecordTermMapped(uint64_t map_ns);
  void RecordSnapshotSwap();
  /// The published snapshot was mapped from its image in
  /// `image_load_us` microseconds.
  void RecordImageLoad(uint64_t image_load_us);
  /// A RELOAD produced and published a replacement snapshot.
  void RecordReloadCompleted();
  /// Transport accounting, reported by the TCP frontend: sessions that
  /// reached the protocol layer, sessions torn down, accepts rejected at
  /// the connection cap, and lines dropped for exceeding the size limit.
  void RecordConnectionOpened();
  void RecordConnectionClosed();
  void RecordConnectionRejected();
  /// `count` oversized lines were dropped — a connection can reject more
  /// than one before it is torn down, so the sink takes the true count
  /// instead of a per-connection flag.
  void RecordLineRejected(uint64_t count = 1);

  [[nodiscard]] ServiceStatsSnapshot Snapshot() const
      MEDRELAX_EXCLUDES(relax_mu_);

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> snapshot_swaps_{0};
  std::atomic<uint64_t> reloads_completed_{0};
  std::atomic<uint64_t> image_load_us_{0};
  std::atomic<uint64_t> map_ns_{0};
  std::atomic<uint64_t> map_terms_{0};
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> lines_rejected_{0};
  std::array<std::atomic<uint64_t>, ServiceStatsSnapshot::kLatencyBuckets>
      latency_buckets_{};
  mutable Mutex relax_mu_{"ServiceStats::relax_mu"};
  RelaxStats relax_totals_ MEDRELAX_GUARDED_BY(relax_mu_);
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_SERVICE_STATS_H_
