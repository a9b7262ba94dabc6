#ifndef MEDRELAX_SERVE_RELAXATION_SERVICE_H_
#define MEDRELAX_SERVE_RELAXATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "medrelax/common/result.h"
#include "medrelax/serve/result_cache.h"
#include "medrelax/serve/service_stats.h"
#include "medrelax/serve/snapshot.h"

namespace medrelax {

/// Knobs of the long-lived relaxation service.
struct ServiceOptions {
  /// Ignored: every request runs on the thread that calls Relax
  /// (docs/SERVING.md). Kept so existing callers still compile.
  unsigned num_workers = 2;
  /// Ignored: there is no request queue. Kept so existing callers still
  /// compile.
  size_t queue_capacity = 256;
  /// Deadline applied to requests that do not carry their own; zero means
  /// "no deadline".
  std::chrono::milliseconds default_deadline{0};
  /// Result-cache sizing; capacity 0 disables caching entirely.
  ResultCacheOptions cache;
};

/// One relaxation request. Either a surface `term` (resolved through the
/// snapshot's mapper, Algorithm 2 line 1) or an already-resolved
/// `concept_id` (which takes precedence when valid).
struct RelaxRequest {
  std::string term;
  ConceptId concept_id = kInvalidConcept;
  ContextId context = kNoContext;
  /// 0 = the snapshot's configured top_k.
  size_t top_k = 0;
  /// Per-request deadline budget; zero falls back to
  /// ServiceOptions::default_deadline.
  std::chrono::steady_clock::duration timeout{0};
  /// When the request arrived (the TCP transport stamps the moment it
  /// framed the line); the deadline counts from here. The
  /// default, the epoch, means "when Relax is called".
  std::chrono::steady_clock::time_point received_at{};
  /// The snapshot to answer from, pinned by a caller that already
  /// resolved `context` against it; null = the current snapshot.
  std::shared_ptr<const Snapshot> snapshot;
};

/// A served answer plus serving metadata.
struct RelaxResponse {
  /// Shared with the result cache: never mutated after creation, remains
  /// valid after eviction and snapshot swaps.
  std::shared_ptr<const RelaxationOutcome> outcome;
  /// The snapshot that answered, pinned: the outcome's concept and
  /// instance ids are only meaningful against it, so reply formatting
  /// reads names (and the generation) from here, never from the possibly
  /// since swapped current snapshot.
  std::shared_ptr<const Snapshot> snapshot;
  bool cache_hit = false;
  /// Always false: requests are no longer coalesced. Kept so existing
  /// readers still compile.
  bool coalesced = false;
};

/// The serving layer over QueryRelaxer: a synchronous, thread-safe call
/// that answers on the caller's thread — map the term, probe the result
/// cache, relax on a miss, insert — so a transport thread answers a line
/// before it reads the next one (docs/SERVING.md).
///
///   * Result caching: answers are cached per (concept, context, k,
///     options fingerprint, snapshot generation); repeated near-identical
///     queries — the dominant relaxation workload shape — cost one lookup.
///   * Deadlines: a request whose budget ran out before relaxation fails
///     with DeadlineExceeded and costs no relaxer work.
///   * Hot snapshot swap: PublishSnapshot atomically replaces the serving
///     bundle; requests in progress finish on the snapshot they pinned,
///     and the generation-scoped cache keys make stale entries
///     unreachable without any explicit invalidation pass.
///
/// Thread-safe: every method may be called concurrently from any thread.
class RelaxationService {
 public:
  /// Serves `initial` (published as generation 1).
  RelaxationService(std::shared_ptr<Snapshot> initial,
                    const ServiceOptions& options);

  RelaxationService(const RelaxationService&) = delete;
  RelaxationService& operator=(const RelaxationService&) = delete;

  /// Answers `request` on the calling thread, or fails with a typed error:
  /// DeadlineExceeded (budget spent before relaxation), NotFound (term
  /// maps to no concept), InvalidArgument (unknown context / bad
  /// request), FailedPrecondition (after Shutdown).
  [[nodiscard]] Result<RelaxResponse> Relax(RelaxRequest request);

  /// Relax, wrapped in an already-resolved future.
  [[nodiscard]] std::future<Result<RelaxResponse>> Submit(
      RelaxRequest request);

  /// Atomically publishes `snapshot` as the new serving state and returns
  /// its generation. Never blocks queries: readers that already hold the
  /// old snapshot finish against it.
  uint64_t PublishSnapshot(std::shared_ptr<Snapshot> snapshot);

  /// The snapshot new requests are currently served from.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
    return registry_.Current();
  }

  /// The service counters as one coherent snapshot.
  [[nodiscard]] ServiceStatsSnapshot Stats() const {
    return stats_.Snapshot();
  }

  [[nodiscard]] const ResultCache& cache() const { return cache_; }

  /// Makes every later call fail with FailedPrecondition; calls already
  /// in progress finish normally. Idempotent.
  void Shutdown();

 private:
  const ServiceOptions options_;
  // Each of these synchronizes internally; no member of this class is read
  // or written under two locks at once.
  SnapshotRegistry registry_;  // lint:allow(guarded-by) internally locked
  ResultCache cache_;          // lint:allow(guarded-by) internally locked
  ServiceStats stats_;         // lint:allow(guarded-by) relaxed atomics
  std::atomic<bool> shut_down_{false};
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_RELAXATION_SERVICE_H_
