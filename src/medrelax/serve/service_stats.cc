#include "medrelax/serve/service_stats.h"

#include <algorithm>
#include <bit>

#include "medrelax/common/string_util.h"

namespace medrelax {

namespace {

size_t LatencyBucket(uint64_t latency_ns) {
  const uint64_t us = latency_ns / 1000;
  if (us == 0) return 0;
  return std::min<size_t>(std::bit_width(us),
                          ServiceStatsSnapshot::kLatencyBuckets - 1);
}

}  // namespace

void ServiceStats::RecordRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordRejectedDeadline() {
  rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordCompleted(bool cache_hit, uint64_t latency_ns) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  (cache_hit ? cache_hits_ : cache_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  latency_buckets_[LatencyBucket(latency_ns)].fetch_add(
      1, std::memory_order_relaxed);
}

void ServiceStats::RecordRelaxStats(const RelaxStats& stats) {
  MutexLock lock(relax_mu_);
  relax_totals_.Accumulate(stats);
}

void ServiceStats::RecordFailed() {
  failed_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordTermMapped(uint64_t map_ns) {
  map_ns_.fetch_add(map_ns, std::memory_order_relaxed);
  map_terms_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordSnapshotSwap() {
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordImageLoad(uint64_t image_load_us) {
  image_load_us_.store(image_load_us, std::memory_order_relaxed);
}

void ServiceStats::RecordReloadCompleted() {
  reloads_completed_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordConnectionOpened() {
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordConnectionClosed() {
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordConnectionRejected() {
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::RecordLineRejected(uint64_t count) {
  lines_rejected_.fetch_add(count, std::memory_order_relaxed);
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
  snap.reloads_completed =
      reloads_completed_.load(std::memory_order_relaxed);
  snap.image_load_us = image_load_us_.load(std::memory_order_relaxed);
  snap.map_ns = map_ns_.load(std::memory_order_relaxed);
  snap.map_terms = map_terms_.load(std::memory_order_relaxed);
  snap.connections_opened =
      connections_opened_.load(std::memory_order_relaxed);
  snap.connections_closed =
      connections_closed_.load(std::memory_order_relaxed);
  snap.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  snap.lines_rejected = lines_rejected_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < snap.latency_buckets.size(); ++i) {
    snap.latency_buckets[i] = latency_buckets_[i].load(
        std::memory_order_relaxed);
  }
  {
    MutexLock lock(relax_mu_);
    snap.relax = relax_totals_;
  }
  return snap;
}

std::string ServiceStatsSnapshot::ToString(bool deterministic_only) const {
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
  out += StrFormat("reloads_completed=%zu\n",
                   static_cast<size_t>(reloads_completed));
  if (deterministic_only) return out;
  // Wall-clock, so excluded from the deterministic subset like the
  // latency histogram below.
  out += StrFormat("image_load_us=%zu\n", static_cast<size_t>(image_load_us));
  out += StrFormat("map_ns=%zu\n", static_cast<size_t>(map_ns));
  out += StrFormat("map_terms=%zu\n", static_cast<size_t>(map_terms));
  // Transport counters stay out of the deterministic subset: stdin and
  // TCP replays of one session must print identical STATS blocks.
  out += StrFormat("connections_opened=%zu\n",
                   static_cast<size_t>(connections_opened));
  out += StrFormat("connections_closed=%zu\n",
                   static_cast<size_t>(connections_closed));
  out += StrFormat("connections_rejected=%zu\n",
                   static_cast<size_t>(connections_rejected));
  out += StrFormat("lines_rejected=%zu\n",
                   static_cast<size_t>(lines_rejected));
  out += StrFormat("relax_candidates_scanned=%zu\n",
                   relax.candidates_scanned);
  out += StrFormat("relax_neighbors_visited=%zu\n", relax.neighbors_visited);
  out += "latency_us_log2=";
  for (size_t i = 0; i < latency_buckets.size(); ++i) {
    out += StrFormat(i == 0 ? "%zu" : ",%zu",
                     static_cast<size_t>(latency_buckets[i]));
  }
  out += "\n";
  return out;
}

}  // namespace medrelax
