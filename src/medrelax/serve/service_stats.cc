#include "medrelax/serve/service_stats.h"

#include "medrelax/common/string_util.h"

namespace medrelax {

void ServiceStats::RecordRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordRejectedDeadline() {
  rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordCompleted(bool cache_hit) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  (cache_hit ? cache_hits_ : cache_misses_)
      .fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordFailed() {
  failed_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordSnapshotSwap() {
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot snap;
  snap.requests = requests_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  snap.failed = failed_.load(std::memory_order_relaxed);
  snap.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  return snap;
}

std::string ServiceStatsSnapshot::ToString() const {
  std::string out;
  out += StrFormat("requests=%zu\n", static_cast<size_t>(requests));
  out += StrFormat("completed=%zu\n", static_cast<size_t>(completed));
  out += StrFormat("cache_hits=%zu\n", static_cast<size_t>(cache_hits));
  out += StrFormat("cache_misses=%zu\n", static_cast<size_t>(cache_misses));
  out += StrFormat("rejected_deadline=%zu\n",
                   static_cast<size_t>(rejected_deadline));
  out += StrFormat("failed=%zu\n", static_cast<size_t>(failed));
  out += StrFormat("snapshot_swaps=%zu\n",
                   static_cast<size_t>(snapshot_swaps));
  return out;
}

}  // namespace medrelax
