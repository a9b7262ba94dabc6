#include "medrelax/serve/relaxation_service.h"

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "medrelax/common/string_util.h"

namespace medrelax {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

RelaxationService::RelaxationService(std::shared_ptr<Snapshot> initial,
                                     const ServiceOptions& options)
    : options_(options), cache_(options.cache) {
  registry_.Publish(std::move(initial));
  workers_.reserve(options_.num_workers);
  for (unsigned i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

RelaxationService::~RelaxationService() { Shutdown(); }

std::future<Result<RelaxResponse>> RelaxationService::Submit(
    RelaxRequest request) {
  // shared_ptr because std::function requires copyable callables and
  // std::promise is move-only; the callback fires exactly once.
  auto promise = std::make_shared<std::promise<Result<RelaxResponse>>>();
  std::future<Result<RelaxResponse>> future = promise->get_future();
  SubmitAsync(std::move(request),
              [promise](Result<RelaxResponse> response) {
                promise->set_value(std::move(response));
              });
  return future;
}

void RelaxationService::SubmitAsync(RelaxRequest request, RelaxCallback done) {
  // A negative timeout is a caller bug, not "unset": silently substituting
  // the default deadline would serve a request the client believes already
  // expired. Reject before admission; no queue slot is consumed.
  if (request.timeout < Clock::duration::zero()) {
    stats_.RecordFailed();
    done(Status::InvalidArgument(StrFormat(
        "timeout must be non-negative (got %lld ns)",
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                request.timeout)
                .count()))));
    return;
  }
  const Clock::time_point now = Clock::now();
  Clock::time_point deadline = Clock::time_point::max();
  if (request.timeout > Clock::duration::zero()) {
    deadline = now + request.timeout;
  } else if (options_.default_deadline > std::chrono::milliseconds::zero()) {
    deadline = now + options_.default_deadline;
  }

  Status rejection = Status::OK();
  {
    MutexLock lock(queue_mu_);
    if (stopped_) {
      stats_.RecordRejectedShutdown();
      rejection = Status::FailedPrecondition("service is shut down");
    } else if (queue_.size() >= options_.queue_capacity) {
      stats_.RecordRejectedQueueFull();
      rejection = Status::ResourceExhausted(StrFormat(
          "admission queue full (%zu queued)", queue_.size()));
    } else {
      queue_.push_back(PendingRequest{std::move(request), now, deadline,
                                      std::move(done)});
      stats_.RecordAdmitted(queue_.size());
    }
  }
  if (!rejection.ok()) {
    // Outside queue_mu_: the callback may re-enter the service.
    done(std::move(rejection));
    return;
  }
  queue_cv_.NotifyOne();
}

Result<RelaxResponse> RelaxationService::Relax(RelaxRequest request) {
  std::future<Result<RelaxResponse>> future = Submit(std::move(request));
  if (options_.num_workers == 0) {
    // No background workers: pump the queue on this thread until the
    // submitted request (or a rejection) resolved the future.
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!RunOnce()) break;
    }
  }
  return future.get();
}

bool RelaxationService::RunOnce() {
  PendingRequest pending;
  {
    MutexLock lock(queue_mu_);
    if (queue_.empty()) return false;
    pending = std::move(queue_.front());
    queue_.pop_front();
  }
  Serve(std::move(pending));
  return true;
}

void RelaxationService::WorkerLoop() {
  for (;;) {
    PendingRequest pending;
    {
      MutexLock lock(queue_mu_);
      // Explicit wait loop: a predicate lambda would read the guarded
      // members outside -Wthread-safety's view of the held lock.
      while (!stopped_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopped_ and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Serve(std::move(pending));
  }
}

void RelaxationService::Serve(PendingRequest pending) {
  // Pin the snapshot for the whole request (and for everything a batch
  // drain pulls along): a concurrent PublishSnapshot must never switch
  // the DAG under a half-served query, and sharing one pin is what makes
  // a drained group's (options fingerprint, generation) uniform.
  std::shared_ptr<const Snapshot> snap = registry_.Current();

  std::optional<ComputeItem> leader = Prepare(std::move(pending), snap);
  if (!leader.has_value()) return;

  std::vector<ComputeItem> group;
  group.push_back(std::move(*leader));
  if (options_.max_batch > 1) {
    // The leader needs relaxer work anyway; greedily pull queued requests
    // of the same context into its shared-frontier pass. Each drained
    // request still gets the full admission treatment (deadline at this
    // dequeue, resolution, cache, single-flight) — duplicates of the
    // leader's key attach as its followers, new keys become co-leaders.
    for (PendingRequest& extra :
         DrainSameContext(group.front().pending.request.context,
                          options_.max_batch - 1)) {
      std::optional<ComputeItem> item = Prepare(std::move(extra), snap);
      if (item.has_value()) group.push_back(std::move(*item));
    }
  }
  ComputeGroup(snap, std::move(group));
}

std::optional<RelaxationService::ComputeItem> RelaxationService::Prepare(
    PendingRequest pending, const std::shared_ptr<const Snapshot>& pinned) {
  const Snapshot& snap = *pinned;
  const Clock::time_point start = Clock::now();
  // Fail fast on requests that aged out while queued: no relaxation work,
  // and the client learns immediately instead of receiving a late answer.
  if (start > pending.deadline) {
    stats_.RecordRejectedDeadline();
    pending.done(Status::DeadlineExceeded(StrFormat(
        "deadline passed %zu us before service",
        static_cast<size_t>(ElapsedNs(pending.deadline, start) / 1000))));
    return std::nullopt;
  }

  ConceptId concept_id = pending.request.concept_id;
  if (concept_id == kInvalidConcept) {
    const Clock::time_point map_start = Clock::now();
    std::optional<ConceptMatch> match =
        snap.mapper().Map(pending.request.term);
    stats_.RecordTermMapped(ElapsedNs(map_start, Clock::now()));
    if (!match.has_value()) {
      stats_.RecordFailed();
      pending.done(Status::NotFound(StrFormat(
          "query term '%s' has no corresponding external concept",
          pending.request.term.c_str())));
      return std::nullopt;
    }
    concept_id = match->id;
  }
  if (concept_id >= snap.dag().num_concepts()) {
    stats_.RecordFailed();
    pending.done(Status::InvalidArgument(StrFormat(
        "concept id %zu out of range", static_cast<size_t>(concept_id))));
    return std::nullopt;
  }
  if (pending.request.context != kNoContext &&
      pending.request.context >= snap.ingestion().contexts.size()) {
    stats_.RecordFailed();
    pending.done(Status::InvalidArgument(StrFormat(
        "context id %zu out of range",
        static_cast<size_t>(pending.request.context))));
    return std::nullopt;
  }

  const size_t k = pending.request.top_k != 0
                       ? pending.request.top_k
                       : snap.relaxer().options().top_k;
  const CacheKey key{concept_id, pending.request.context,
                     static_cast<uint64_t>(k), snap.options_fingerprint(),
                     snap.generation()};

  if (std::shared_ptr<const RelaxationOutcome> cached = cache_.Lookup(key)) {
    RelaxResponse response;
    response.outcome = std::move(cached);
    response.snapshot = pinned;
    response.cache_hit = true;
    response.latency_ns = ElapsedNs(pending.enqueued_at, Clock::now());
    stats_.RecordCompleted(/*cache_hit=*/true, response.latency_ns);
    pending.done(std::move(response));
    return std::nullopt;
  }

  // Single-flight: if an identical computation is already in flight,
  // attach to it — the leader fans the outcome out when it lands. The
  // generation inside the key keeps this swap-safe: a request admitted
  // after PublishSnapshot pins the new snapshot, computes a new-generation
  // key, and can never attach to (or be fanned) a stale result.
  {
    MutexLock lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      stats_.RecordCoalesced();
      it->second.push_back(std::move(pending));
      return std::nullopt;
    }
    inflight_.emplace(key, std::vector<PendingRequest>{});
    stats_.RecordInflightDepth(inflight_.size());
  }
  return ComputeItem{std::move(pending), key, k};
}

std::vector<RelaxationService::PendingRequest>
RelaxationService::DrainSameContext(ContextId context, size_t limit) {
  std::vector<PendingRequest> drained;
  if (limit == 0) return drained;
  MutexLock lock(queue_mu_);
  for (auto it = queue_.begin();
       it != queue_.end() && drained.size() < limit;) {
    if (it->request.context == context) {
      drained.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return drained;
}

void RelaxationService::ComputeGroup(
    const std::shared_ptr<const Snapshot>& pinned,
    std::vector<ComputeItem> group) {
  const Snapshot& snap = *pinned;
  if (options_.pre_compute_hook_for_test) options_.pre_compute_hook_for_test();

  std::vector<PreparedQuery> queries;
  queries.reserve(group.size());
  for (const ComputeItem& item : group) {
    queries.push_back(
        PreparedQuery{item.key.concept_id, item.key.context, item.k});
  }
  // One RelaxBatch pass over the group: consecutive same-concept queries
  // reuse the query's upward sweep.
  std::vector<RelaxationOutcome> outcomes = snap.relaxer().RelaxBatch(
      std::span<const PreparedQuery>(queries));

  for (size_t i = 0; i < group.size(); ++i) {
    auto outcome =
        std::make_shared<const RelaxationOutcome>(std::move(outcomes[i]));
    stats_.RecordRelaxStats(outcome->stats);
    cache_.Insert(group[i].key, outcome);
    // Detach the followers only after the cache insert: a racer that
    // misses the cache before the insert and checks the table after the
    // erase merely recomputes — it can never be stranded.
    std::vector<PendingRequest> followers;
    {
      MutexLock lock(inflight_mu_);
      auto it = inflight_.find(group[i].key);
      if (it != inflight_.end()) {
        followers = std::move(it->second);
        inflight_.erase(it);
      }
    }

    RelaxResponse response;
    response.outcome = outcome;
    response.snapshot = pinned;
    response.cache_hit = false;
    response.latency_ns = ElapsedNs(group[i].pending.enqueued_at,
                                    Clock::now());
    stats_.RecordCompleted(/*cache_hit=*/false, response.latency_ns);
    group[i].pending.done(std::move(response));

    for (PendingRequest& follower : followers) {
      RelaxResponse fanned;
      fanned.outcome = outcome;
      fanned.snapshot = pinned;
      fanned.cache_hit = true;
      fanned.coalesced = true;
      fanned.latency_ns = ElapsedNs(follower.enqueued_at, Clock::now());
      stats_.RecordCompleted(/*cache_hit=*/true, fanned.latency_ns);
      follower.done(std::move(fanned));
    }
  }
}

uint64_t RelaxationService::PublishSnapshot(
    std::shared_ptr<Snapshot> snapshot) {
  const uint64_t generation = registry_.Publish(std::move(snapshot));
  stats_.RecordSnapshotSwap();
  return generation;
}

size_t RelaxationService::queue_depth() const {
  MutexLock lock(queue_mu_);
  return queue_.size();
}

ServiceStatsSnapshot RelaxationService::Stats() const {
  ServiceStatsSnapshot snap = stats_.Snapshot();
  snap.admission_rejects = cache_.admission_rejects();
  snap.sweeps_completed = cache_.sweeps_completed();
  snap.activity_evictions = cache_.activity_evictions();
  return snap;
}

void RelaxationService::Shutdown() {
  std::deque<PendingRequest> orphaned;
  {
    MutexLock lock(queue_mu_);
    if (stopped_ && workers_.empty() && queue_.empty()) return;
    stopped_ = true;
    if (workers_.empty()) {
      // No workers to drain the queue: fail the backlog here so no
      // promise is ever silently broken.
      orphaned.swap(queue_);
    }
  }
  queue_cv_.NotifyAll();
  for (PendingRequest& pending : orphaned) {
    stats_.RecordRejectedShutdown();
    pending.done(
        Status::FailedPrecondition("service shut down before service"));
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

}  // namespace medrelax
