#include "medrelax/relax/query_relaxer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "medrelax/common/string_util.h"
#include "medrelax/graph/geometry.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// One thread's traversal scratch, shared by every relaxer that runs on
/// the thread. Both members are epoch-stamped, so re-anchoring them costs
/// O(1) and no query allocates or fills a |V|-sized array; the arrays
/// only grow to the largest core (expander) and DAG (engine) the thread
/// has relaxed against.
struct RelaxScratch {
  RadiusExpander expander;
  GeometryEngine engine;
};

RelaxScratch& ThreadScratch() {
  thread_local RelaxScratch scratch;
  return scratch;
}

}  // namespace

QueryRelaxer::QueryRelaxer(const ConceptDag* eks,
                           const IngestionResult* ingestion,
                           const MappingFunction* mapper,
                           const SimilarityOptions& similarity_options,
                           const RelaxationOptions& relaxation_options)
    : eks_(eks),
      ingestion_(ingestion),
      mapper_(mapper),
      similarity_(eks, &ingestion->frequencies, similarity_options),
      relaxation_options_(relaxation_options),
      core_(*eks, ingestion->flagged) {}

Result<RelaxationOutcome> QueryRelaxer::Relax(std::string_view term,
                                              ContextId context) const {
  // Line 1: A <- mapping(q, EKS).
  std::optional<ConceptMatch> match = mapper_->Map(term);
  if (!match.has_value()) {
    return Status::NotFound(
        StrFormat("query term '%.*s' has no corresponding external concept",
                  static_cast<int>(term.size()), term.data()));
  }
  return RelaxConcept(match->id, context);
}

RelaxationOutcome QueryRelaxer::RelaxConcept(ConceptId query,
                                             ContextId context) const {
  return RelaxConceptWithK(query, context, relaxation_options_.top_k);
}

RelaxationOutcome QueryRelaxer::RelaxConceptWithK(ConceptId query,
                                                  ContextId context,
                                                  size_t k) const {
  ThreadScratch().engine.Reset(eks_);
  return RelaxOnThread(query, context, k);
}

RelaxationOutcome QueryRelaxer::RelaxOnThread(ConceptId query,
                                              ContextId context,
                                              size_t k) const {
  const auto t_start = std::chrono::steady_clock::now();
  RelaxScratch& scratch = ThreadScratch();
  RelaxationOutcome outcome;
  outcome.query_concept = query;

  const std::vector<bool>& flagged = ingestion_->flagged;
  auto instance_count = [&](ConceptId b) -> size_t {
    auto it = ingestion_->concept_instances.find(b);
    return it == ingestion_->concept_instances.end() ? 0 : it->second.size();
  };

  // Line 2: candidates = flagged concepts within radius r. Every flagged
  // concept is in the core, and a query peeled off it reaches them only
  // through its attachment a(q), δ(q) hops away: d(q, f) = δ(q) +
  // d_core(a(q), f). So the search runs over the core from a(q) to radius
  // r - δ(q); a(q) itself is a candidate once r >= δ(q). The expander
  // keeps its Dijkstra frontier across iterations, so dynamic growth only
  // pays for the newly uncovered ring, and candidate/coverage bookkeeping
  // only touches neighbors not seen at the previous radius.
  uint32_t radius = relaxation_options_.radius;
  const FlaggedCore::Attachment anchor = core_.Attach(query);
  RadiusExpander& expander = scratch.expander;
  expander.Reset(core_, anchor.node);
  std::vector<Neighbor> neighbors;  // hops measured from a(q)
  std::vector<ConceptId> candidates;
  size_t covered_instances = 0;
  auto consider = [&](ConceptId id) {
    if (id < flagged.size() && flagged[id]) {
      candidates.push_back(id);
      covered_instances += instance_count(id);
    }
  };
  consider(query);  // the term itself, when in the KB
  // Offset 0 means the query is its own attachment (or has none).
  bool anchor_pending = anchor.offset > 0;
  size_t consumed = 0;
  for (;;) {
    ++outcome.stats.radius_iterations;
    if (anchor.node != FlaggedCore::kNoNode && radius >= anchor.offset) {
      if (anchor_pending) {
        anchor_pending = false;
        neighbors.push_back({core_.concept_of(anchor.node), 0});
      }
      expander.ExpandTo(radius - anchor.offset, &neighbors);
    }
    for (; consumed < neighbors.size(); ++consumed) {
      consider(neighbors[consumed].id);
    }
    if (!relaxation_options_.dynamic_radius || covered_instances >= k ||
        radius >= relaxation_options_.max_radius) {
      break;
    }
    ++radius;
  }
  outcome.effective_radius = radius;
  outcome.stats.neighbors_visited = neighbors.size();
  const auto t_candidates = std::chrono::steady_clock::now();
  outcome.stats.candidate_ns = ElapsedNs(t_start, t_candidates);

  // Line 3: score each candidate from its own geometry, computed by the
  // shared-frontier engine (one upward BFS for the query, then one small
  // cone per candidate).
  GeometryEngine& engine = scratch.engine;
  engine.SetSource(query);
  std::vector<ScoredConcept> scored;
  scored.reserve(candidates.size());
  for (ConceptId b : candidates) {
    ScoredConcept sc;
    sc.concept_id = b;
    sc.similarity = b == query ? 1.0
                               : similarity_.ScoreGeometry(engine.Compute(b),
                                                           query, b, context);
    auto it = ingestion_->concept_instances.find(b);
    if (it != ingestion_->concept_instances.end()) sc.instances = it->second;
    scored.push_back(std::move(sc));
  }
  outcome.stats.candidates_scanned = candidates.size();
  const auto t_scored = std::chrono::steady_clock::now();
  outcome.stats.scoring_ns = ElapsedNs(t_candidates, t_scored);

  // Sort by sim(A, B) descending; deterministic tie-break on concept id.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredConcept& a, const ScoredConcept& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.concept_id < b.concept_id;
            });

  // Lines 4-8: pop candidates until exactly k instances are gathered; the
  // last concept's contribution is truncated at the k boundary.
  for (ScoredConcept& sc : scored) {
    if (outcome.instances.size() >= k) break;
    for (InstanceId i : sc.instances) {
      if (outcome.instances.size() >= k) break;
      outcome.instances.push_back(i);
    }
    outcome.concepts.push_back(std::move(sc));
  }
  const auto t_ranked = std::chrono::steady_clock::now();
  outcome.stats.rank_ns = ElapsedNs(t_scored, t_ranked);
  outcome.stats.total_ns = ElapsedNs(t_start, t_ranked);
  return outcome;
}

std::vector<RelaxationOutcome> QueryRelaxer::RelaxBatch(
    std::span<const ConceptQuery> queries, unsigned num_threads) const {
  std::vector<RelaxationOutcome> outcomes(queries.size());
  if (queries.empty()) return outcomes;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads = static_cast<unsigned>(
      std::min<size_t>(num_threads, queries.size()));

  std::atomic<size_t> next{0};
  auto worker = [&]() {
    ThreadScratch().engine.Reset(eks_);
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) return;
      outcomes[i] = RelaxOnThread(queries[i].concept_id, queries[i].context,
                                  relaxation_options_.top_k);
    }
  };
  if (num_threads == 1) {
    worker();
    return outcomes;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  return outcomes;
}

}  // namespace medrelax
