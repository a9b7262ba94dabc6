#include "medrelax/serve/relaxation_service.h"

#include <optional>
#include <utility>

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
}

Result<RelaxResponse> RelaxationService::Relax(RelaxRequest request) {
  if (shut_down_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  // A negative timeout is a caller bug, not "unset": silently substituting
  // the default deadline would serve a request the client believes already
  // expired.
  if (request.timeout < Clock::duration::zero()) {
    stats_.RecordFailed();
    return Status::InvalidArgument(StrFormat(
        "timeout must be non-negative (got %lld ns)",
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                request.timeout)
                .count())));
  }
  stats_.RecordRequest();
  const Clock::time_point received = request.received_at == Clock::time_point{}
                                         ? Clock::now()
                                         : request.received_at;
  Clock::time_point deadline = Clock::time_point::max();
  if (request.timeout > Clock::duration::zero()) {
    deadline = received + request.timeout;
  } else if (options_.default_deadline > std::chrono::milliseconds::zero()) {
    deadline = received + options_.default_deadline;
  }

  // Pin the snapshot for the whole request: a concurrent PublishSnapshot
  // must never switch the DAG under a half-served query.
  std::shared_ptr<const Snapshot> pinned =
      request.snapshot != nullptr ? std::move(request.snapshot)
                                  : registry_.Current();
  const Snapshot& snap = *pinned;

  ConceptId concept_id = request.concept_id;
  if (concept_id == kInvalidConcept) {
    std::optional<ConceptMatch> match = snap.mapper().Map(request.term);
    if (!match.has_value()) {
      stats_.RecordFailed();
      return Status::NotFound(StrFormat(
          "query term '%s' has no corresponding external concept",
          request.term.c_str()));
    }
    concept_id = match->id;
  }
  if (concept_id >= snap.dag().num_concepts()) {
    stats_.RecordFailed();
    return Status::InvalidArgument(StrFormat(
        "concept id %zu out of range", static_cast<size_t>(concept_id)));
  }
  if (request.context != kNoContext &&
      request.context >= snap.ingestion().contexts.size()) {
    stats_.RecordFailed();
    return Status::InvalidArgument(StrFormat(
        "context id %zu out of range", static_cast<size_t>(request.context)));
  }
  // Fail fast once the budget is spent: no relaxation work, and the
  // client learns now instead of receiving a late answer.
  const Clock::time_point checked = Clock::now();
  if (checked > deadline) {
    stats_.RecordRejectedDeadline();
    return Status::DeadlineExceeded(StrFormat(
        "deadline passed %zu us before relaxation",
        static_cast<size_t>(ElapsedNs(deadline, checked) / 1000)));
  }

  const size_t k = request.top_k != 0 ? request.top_k
                                      : snap.relaxer().options().top_k;
  const CacheKey key{concept_id, request.context, static_cast<uint64_t>(k),
                     snap.options_fingerprint(), snap.generation()};
  RelaxResponse response;
  response.outcome = cache_.Lookup(key);
  response.cache_hit = response.outcome != nullptr;
  if (!response.cache_hit) {
    auto outcome = std::make_shared<const RelaxationOutcome>(
        snap.relaxer().RelaxConceptWithK(concept_id, request.context, k));
    cache_.Insert(key, outcome);
    response.outcome = std::move(outcome);
  }
  response.snapshot = std::move(pinned);
  stats_.RecordCompleted(response.cache_hit);
  return response;
}

std::future<Result<RelaxResponse>> RelaxationService::Submit(
    RelaxRequest request) {
  std::promise<Result<RelaxResponse>> promise;
  promise.set_value(Relax(std::move(request)));
  return promise.get_future();
}

uint64_t RelaxationService::PublishSnapshot(
    std::shared_ptr<Snapshot> snapshot) {
  const uint64_t generation = registry_.Publish(std::move(snapshot));
  stats_.RecordSnapshotSwap();
  return generation;
}

void RelaxationService::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
}

}  // namespace medrelax
