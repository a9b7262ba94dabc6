#ifndef MEDRELAX_SERVE_SERVICE_STATS_H_
#define MEDRELAX_SERVE_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace medrelax {

/// A coherent copy of the service counters at one instant, safe to read,
/// print, and diff without synchronization.
struct ServiceStatsSnapshot {
  uint64_t requests = 0;          ///< Relax calls with a valid timeout
  uint64_t completed = 0;         ///< answered (hit or computed)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;      ///< answered by running the relaxer
  uint64_t rejected_deadline = 0; ///< expired before relaxation
  uint64_t failed = 0;            ///< mapping/validation errors
  uint64_t snapshot_swaps = 0;    ///< PublishSnapshot calls

  /// One `key=value` line per counter, in a stable order: the block the
  /// STATS verb prints. Every counter is a count of requests or swaps, so
  /// one scripted session prints the same block over stdin and TCP.
  [[nodiscard]] std::string ToString() const;
};

/// Lock-free counter block every service entry point reports into, one
/// counter per event. Counters are relaxed atomics: totals are exact once
/// the writers are quiescent, and monotone (never torn) while they run.
class ServiceStats {
 public:
  ServiceStats() = default;
  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  /// A request passed its timeout check and is being served.
  void RecordRequest();
  void RecordRejectedDeadline();
  /// A request was answered, from the cache or by the relaxer.
  void RecordCompleted(bool cache_hit);
  void RecordFailed();
  void RecordSnapshotSwap();

  [[nodiscard]] ServiceStatsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> snapshot_swaps_{0};
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_SERVICE_STATS_H_
