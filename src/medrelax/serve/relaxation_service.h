#ifndef MEDRELAX_SERVE_RELAXATION_SERVICE_H_
#define MEDRELAX_SERVE_RELAXATION_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "medrelax/common/mutex.h"
#include "medrelax/common/result.h"
#include "medrelax/serve/result_cache.h"
#include "medrelax/serve/service_stats.h"
#include "medrelax/serve/snapshot.h"

namespace medrelax {

/// Knobs of the long-lived relaxation service.
struct ServiceOptions {
  /// Background workers draining the request queue. 0 = no background
  /// threads: callers pump the queue themselves with RunOnce (the
  /// single-threaded embedding and the admission-control tests use this).
  unsigned num_workers = 2;
  /// Bound of the MPMC request queue; a Submit against a full queue is
  /// rejected with ResourceExhausted instead of growing the backlog.
  size_t queue_capacity = 256;
  /// Deadline applied to requests that do not carry their own; zero means
  /// "no deadline".
  std::chrono::milliseconds default_deadline{0};
  /// Result-cache sizing; capacity 0 disables caching entirely.
  ResultCacheOptions cache;
  /// Same-context batch drain: a worker that dequeues a request needing
  /// relaxer work may greedily pull up to `max_batch - 1` additional
  /// queued requests with the same context and serve the whole group
  /// through one shared-frontier QueryRelaxer::RelaxBatch pass. The
  /// group shares one pinned snapshot, so (options fingerprint,
  /// generation) are uniform by construction. 0 or 1 disables draining
  /// (strict request-at-a-time dequeue).
  size_t max_batch = 8;
  /// Test-only seam: when set, runs on the serving thread after a group's
  /// in-flight entries are claimed and before the relaxer runs. Lets the
  /// concurrency tests (and the smoke script, via
  /// MEDRELAX_COMPUTE_TEST_DELAY_MS in medrelax_server) hold a leader
  /// mid-computation so followers deterministically attach. Copied at
  /// construction; never invoked under a service lock.
  std::function<void()> pre_compute_hook_for_test;
};

/// One relaxation request. Either a surface `term` (resolved through the
/// current snapshot's mapper, Algorithm 2 line 1) or an already-resolved
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
  /// True when this answer was fanned out from an identical in-flight
  /// computation (single-flight dedup). Coalesced answers also count as
  /// cache hits: the client paid zero relaxer work.
  bool coalesced = false;
  /// Submit-to-answer wall time.
  uint64_t latency_ns = 0;
};

/// Completion callback of an async submit: invoked exactly once with the
/// answer or a typed rejection. Admission rejections (queue full,
/// shutdown) run it inline on the submitting thread, after every service
/// lock is released; everything else runs it on the worker (or
/// RunOnce-pumping) thread that served the request. Callbacks must not
/// block: the TCP frontend hands the formatted reply to its event loop
/// via EventLoop::Post and returns (docs/SERVING.md).
using RelaxCallback = std::function<void(Result<RelaxResponse>)>;

/// The serving layer over QueryRelaxer: owns request lifetimes so the
/// library's requests-per-second surface has explicit backpressure.
///
///   * Bounded MPMC queue + worker pool: Submit never blocks; a full queue
///     fails fast with ResourceExhausted (admission control), and requests
///     whose deadline passed while queued fail with DeadlineExceeded
///     before any relaxation work is spent on them.
///   * Result caching: answers are cached per (concept, context, k,
///     options fingerprint, snapshot generation); repeated near-identical
///     queries — the dominant relaxation workload shape — cost one lookup.
///   * Coalescing: concurrent identical misses are deduplicated through a
///     single-flight in-flight table (one leader computes, followers
///     attach and are fanned the shared outcome), and a worker may drain
///     queued same-context requests into one shared-frontier RelaxBatch
///     pass (ServiceOptions::max_batch; docs/SERVING.md).
///   * Hot snapshot swap: PublishSnapshot atomically replaces the serving
///     bundle; in-flight queries finish on the snapshot they started with,
///     and the generation-scoped cache keys make stale entries
///     unreachable without any explicit invalidation pass.
///
/// Thread-safe: Submit / RunOnce / PublishSnapshot / Stats may be called
/// concurrently from any thread.
class RelaxationService {
 public:
  /// Starts the worker pool against `initial` (published as generation 1).
  RelaxationService(std::shared_ptr<Snapshot> initial,
                    const ServiceOptions& options);
  /// Stops intake, fails queued requests with FailedPrecondition, joins.
  ~RelaxationService();

  RelaxationService(const RelaxationService&) = delete;
  RelaxationService& operator=(const RelaxationService&) = delete;

  /// Enqueues a request. The future resolves to the answer, or to a typed
  /// error: ResourceExhausted (queue full), DeadlineExceeded (expired
  /// before service), NotFound (term maps to no concept), InvalidArgument
  /// (unknown context / bad request), FailedPrecondition (shutdown).
  [[nodiscard]] std::future<Result<RelaxResponse>> Submit(RelaxRequest request)
      MEDRELAX_EXCLUDES(queue_mu_);

  /// Callback form of Submit, for callers that must not block a thread
  /// per in-flight request (the epoll frontend): `done` fires exactly
  /// once per the RelaxCallback contract above. Submit is a thin wrapper
  /// over this.
  void SubmitAsync(RelaxRequest request, RelaxCallback done)
      MEDRELAX_EXCLUDES(queue_mu_);

  /// Submit + wait. With no background workers the caller's thread pumps
  /// the queue, so this works in single-threaded embeddings too.
  /// MEDRELAX_BLOCKING: waits on the answer future; loop-thread code uses
  /// SubmitAsync instead.
  [[nodiscard]] Result<RelaxResponse> Relax(RelaxRequest request)
      MEDRELAX_BLOCKING;

  /// Dequeues and serves one request on the calling thread (plus any
  /// same-context requests a batch drain pulls along, when max_batch > 1);
  /// false when the queue is empty. The pump primitive behind
  /// num_workers = 0.
  bool RunOnce() MEDRELAX_EXCLUDES(queue_mu_);

  /// Atomically publishes `snapshot` as the new serving state and returns
  /// its generation. Never blocks queries: readers that already hold the
  /// old snapshot finish against it.
  uint64_t PublishSnapshot(std::shared_ptr<Snapshot> snapshot);

  /// The snapshot new requests are currently served from.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
    return registry_.Current();
  }

  /// Service counters plus the result cache's activity-policy counters
  /// (admission rejects, sweeps, sweep evictions) merged into one
  /// coherent snapshot.
  [[nodiscard]] ServiceStatsSnapshot Stats() const;

  /// Mutable counter sink for the transport layer: the TCP frontend
  /// records connection lifecycle events (opened/closed/rejected,
  /// oversized lines) into the same block the STATS verb prints.
  /// ServiceStats is internally atomic, so this is thread-safe.
  [[nodiscard]] ServiceStats& TransportStats() { return stats_; }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }
  [[nodiscard]] size_t queue_depth() const MEDRELAX_EXCLUDES(queue_mu_);

  /// Stops intake (further Submits fail with FailedPrecondition), drains
  /// already-admitted requests, and joins the workers. Idempotent; called
  /// by the destructor. MEDRELAX_BLOCKING: joins worker threads.
  void Shutdown() MEDRELAX_EXCLUDES(queue_mu_) MEDRELAX_BLOCKING;

 private:
  struct PendingRequest {
    RelaxRequest request;
    std::chrono::steady_clock::time_point enqueued_at;
    /// time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
    /// Resolves the request (answer or typed error); fires exactly once.
    RelaxCallback done;
  };

  /// A request that survived the admission-side phases (deadline, term
  /// resolution, validation, cache, single-flight) and owns the in-flight
  /// entry under `key`: its relaxer work still has to run.
  struct ComputeItem {
    PendingRequest pending;
    CacheKey key;
    /// Effective top-k (explicit or the snapshot default).
    size_t k = 0;
  };

  void WorkerLoop() MEDRELAX_EXCLUDES(queue_mu_);
  /// Serves one dequeued request end-to-end (deadline check, term
  /// resolution, cache, single-flight attach, same-context batch drain,
  /// relaxation, fan-out) and fulfills its promise. Runs one-lock-at-a-
  /// time: the serve path never holds queue_mu_ or inflight_mu_ while it
  /// touches the registry, the cache, or the relaxer
  /// (docs/CONCURRENCY.md).
  void Serve(PendingRequest pending) MEDRELAX_EXCLUDES(queue_mu_);
  /// Admission-side phases for one dequeued request against the
  /// `pinned` snapshot, which a cache hit's response carries. Returns the
  /// compute item when this request became the leader of a new in-flight
  /// computation; nullopt when it was fully resolved here (typed error,
  /// cache hit, or coalesced onto an existing leader).
  std::optional<ComputeItem> Prepare(
      PendingRequest pending, const std::shared_ptr<const Snapshot>& pinned)
      MEDRELAX_EXCLUDES(inflight_mu_);
  /// Greedily extracts up to `limit` queued requests whose context equals
  /// `context`, preserving the relative order of everything left behind.
  std::vector<PendingRequest> DrainSameContext(ContextId context,
                                               size_t limit)
      MEDRELAX_EXCLUDES(queue_mu_);
  /// Runs the `pinned` snapshot's relaxer once over the whole group, then
  /// per item: caches the outcome, resolves the leader, and fans the same
  /// outcome out to every follower that attached while it computed; every
  /// response carries `pinned`. All callbacks are invoked with no service
  /// lock held.
  void ComputeGroup(const std::shared_ptr<const Snapshot>& pinned,
                    std::vector<ComputeItem> group)
      MEDRELAX_EXCLUDES(inflight_mu_);

  const ServiceOptions options_;
  // Each of these synchronizes internally; no member of this class is read
  // or written under two locks at once.
  SnapshotRegistry registry_;  // lint:allow(guarded-by) internally locked
  ResultCache cache_;          // lint:allow(guarded-by) internally locked
  ServiceStats stats_;         // lint:allow(guarded-by) internally locked

  mutable Mutex queue_mu_{"RelaxationService::queue_mu"};
  CondVar queue_cv_;
  std::deque<PendingRequest> queue_ MEDRELAX_GUARDED_BY(queue_mu_);
  bool stopped_ MEDRELAX_GUARDED_BY(queue_mu_) = false;
  /// Single-flight rendezvous: key -> followers waiting on the leader
  /// that owns the entry. Present key = computation in flight. Like every
  /// serving-layer lock, inflight_mu_ is never held together with another
  /// lock — and never while a callback runs (docs/CONCURRENCY.md).
  mutable Mutex inflight_mu_{"RelaxationService::inflight_mu"};
  std::unordered_map<CacheKey, std::vector<PendingRequest>, CacheKeyHash>
      inflight_ MEDRELAX_GUARDED_BY(inflight_mu_);
  /// Touched only before the workers start (constructor) and after they
  /// stop (Shutdown's join), both on the owning thread.
  std::vector<std::thread> workers_;  // lint:allow(guarded-by) ctor/join only
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_RELAXATION_SERVICE_H_
