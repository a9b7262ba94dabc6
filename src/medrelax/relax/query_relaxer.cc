#include "medrelax/relax/query_relaxer.h"

#include <algorithm>
#include <chrono>

#include "medrelax/common/logging.h"
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

/// One flagged candidate's Equation 5 score: what the scoring loop
/// writes and the ranking sorts, before any instance is touched.
struct ScoredRecord {
  double similarity;
  ConceptId concept_id;
};

/// The fewest records one ranking step orders; a step covers at least k.
constexpr size_t kMinRankStep = 8;

/// One thread's relaxation scratch, shared by every relaxer that runs on
/// the thread. The expander and engine are epoch-stamped, so re-anchoring
/// them costs O(1) and no query allocates or fills a |V|-sized array;
/// their arrays only grow to the largest core (expander) and DAG (engine)
/// the thread has relaxed against. The vectors are cleared per query and
/// keep their capacity, so a warm thread scores without allocating.
struct RelaxScratch {
  RadiusExpander expander;
  GeometryEngine engine;
  std::vector<Neighbor> neighbors;  // hops measured from a(q)
  std::vector<ConceptId> candidates;
  std::vector<ScoredRecord> scored;
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
  // Every entry point passes through here. A context past the frequency
  // model's would read past its table while scoring; an out-of-range
  // query concept is fine — it is in no table row and finds nothing.
  const size_t num_contexts = ingestion_->frequencies.num_contexts();
  MEDRELAX_CHECK(context == kNoContext || context < num_contexts)
      << "context " << context << " is out of range: the frequency model has "
      << num_contexts << " contexts";
  RelaxScratch& scratch = ThreadScratch();
  scratch.engine.Reset(eks_);
  const auto t_start = std::chrono::steady_clock::now();
  RelaxationOutcome outcome;
  outcome.query_concept = query;

  const std::vector<bool>& flagged = ingestion_->flagged;
  const ConceptCsr& instances_of = ingestion_->concept_instances;

  // Line 2: candidates = flagged concepts within radius r. Every flagged
  // concept is in the core, and a query peeled off it reaches them only
  // through its attachment a(q), δ(q) hops away: d(q, f) = δ(q) +
  // d_core(a(q), f). So the search runs over the core from a(q) to radius
  // r - δ(q); a(q) itself is a candidate once r >= δ(q). The expander
  // keeps its breadth-first frontier across iterations, so dynamic growth
  // only pays for the newly uncovered ring, and candidate/coverage
  // bookkeeping only touches neighbors not seen at the previous radius.
  uint32_t radius = relaxation_options_.radius;
  const FlaggedCore::Attachment anchor = core_.Attach(query);
  RadiusExpander& expander = scratch.expander;
  expander.Reset(core_, anchor.node);
  std::vector<Neighbor>& neighbors = scratch.neighbors;
  std::vector<ConceptId>& candidates = scratch.candidates;
  neighbors.clear();
  candidates.clear();
  size_t covered_instances = 0;
  auto consider = [&](ConceptId id) {
    if (id < flagged.size() && flagged[id]) {
      candidates.push_back(id);
      covered_instances += instances_of.count(id);
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
  // cone per candidate) into flat records; the query's side of Equation 5
  // is taken once.
  GeometryEngine& engine = scratch.engine;
  engine.SetSource(query);
  const SimilarityModel::ScoreSource source =
      similarity_.Source(query, context);
  std::vector<ScoredRecord>& scored = scratch.scored;
  scored.clear();
  for (ConceptId b : candidates) {
    scored.push_back(
        {b == query ? 1.0
                    : similarity_.ScoreGeometry(engine.Compute(b), source, b),
         b});
  }
  outcome.stats.candidates_scanned = candidates.size();
  const auto t_scored = std::chrono::steady_clock::now();
  outcome.stats.scoring_ns = ElapsedNs(t_candidates, t_scored);

  // Lines 4-8: pop candidates in rank order until exactly k instances are
  // gathered; the last concept's contribution is truncated at the k
  // boundary. Rank order is sim(A, B) descending with a deterministic
  // tie-break on concept id, a strict order, so ordering only a prefix
  // yields exactly the prefix a full sort would: each step partially
  // sorts the next `step` records of the unranked rest, and another
  // (twice as long) step is taken only while zero-instance concepts
  // leave k unfilled.
  auto ranks_before = [](const ScoredRecord& a, const ScoredRecord& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.concept_id < b.concept_id;
  };
  size_t step = std::max<size_t>(k, kMinRankStep);
  size_t ranked = 0;
  size_t returned = 0;
  size_t gathered = 0;
  while (returned < scored.size() && gathered < k) {
    if (returned == ranked) {
      const size_t end = ranked + std::min(step, scored.size() - ranked);
      std::partial_sort(scored.begin() + static_cast<std::ptrdiff_t>(ranked),
                        scored.begin() + static_cast<std::ptrdiff_t>(end),
                        scored.end(), ranks_before);
      ranked = end;
      step *= 2;
    }
    gathered += instances_of.count(scored[returned++].concept_id);
  }
  // Only the concepts that fill k become ScoredConcepts, each with its own
  // copy of its instances (a cached outcome must not point into an image
  // that a RELOAD may unmap).
  outcome.concepts.reserve(returned);
  outcome.instances.reserve(std::min(gathered, k));
  for (size_t r = 0; r < returned; ++r) {
    const std::span<const InstanceId> instances =
        instances_of[scored[r].concept_id];
    const size_t room = k - outcome.instances.size();
    outcome.instances.insert(
        outcome.instances.end(), instances.begin(),
        instances.begin() +
            static_cast<std::ptrdiff_t>(std::min(room, instances.size())));
    outcome.concepts.push_back(
        {scored[r].concept_id, scored[r].similarity,
         std::vector<InstanceId>(instances.begin(), instances.end())});
  }
  const auto t_ranked = std::chrono::steady_clock::now();
  outcome.stats.rank_ns = ElapsedNs(t_scored, t_ranked);
  outcome.stats.total_ns = ElapsedNs(t_start, t_ranked);
  return outcome;
}

}  // namespace medrelax
