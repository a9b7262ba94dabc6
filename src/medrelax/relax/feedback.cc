#include "medrelax/relax/feedback.h"

#include <algorithm>
#include <cmath>

namespace medrelax {

double FeedbackRelaxer::Factor(ConceptId concept_id, ContextId context) const {
  auto it = factors_.find(Key(concept_id, context));
  return it == factors_.end() ? 1.0 : it->second;
}

void FeedbackRelaxer::Apply(ConceptId candidate, ContextId context,
                            double factor) {
  auto bump = [&](ConceptId c, double f) {
    double& cell = factors_.emplace(Key(c, context), 1.0).first->second;
    cell = std::clamp(cell * f, options_.min_factor, options_.max_factor);
  };
  bump(candidate, factor);
  // Attenuated propagation to direct taxonomy neighbors (log-space share).
  double shared = std::exp(options_.neighborhood_share * std::log(factor));
  for (const DagEdge& e : dag_->parents(candidate)) {
    if (!e.is_shortcut()) bump(e.target, shared);
  }
  for (const DagEdge& e : dag_->children(candidate)) {
    if (!e.is_shortcut()) bump(e.target, shared);
  }
}

void FeedbackRelaxer::Accept(ConceptId candidate, ContextId context) {
  Apply(candidate, context, options_.accept_boost);
}

void FeedbackRelaxer::Reject(ConceptId candidate, ContextId context) {
  Apply(candidate, context, options_.reject_penalty);
}

RelaxationOutcome FeedbackRelaxer::RelaxConcept(ConceptId query,
                                                ContextId context) const {
  const size_t k = base_->options().top_k;
  RelaxationOutcome outcome = base_->RelaxConceptWithK(
      query, context, k * std::max<size_t>(1, options_.overfetch));
  for (ScoredConcept& sc : outcome.concepts) {
    sc.similarity *= Factor(sc.concept_id, context);
  }
  std::sort(outcome.concepts.begin(), outcome.concepts.end(),
            [](const ScoredConcept& a, const ScoredConcept& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.concept_id < b.concept_id;
            });
  // Truncate back to exactly the base k, like Algorithm 2 does: the last
  // concept's contribution is cut at the k boundary.
  outcome.instances.clear();
  std::vector<ScoredConcept> kept;
  for (ScoredConcept& sc : outcome.concepts) {
    if (outcome.instances.size() >= k) break;
    for (InstanceId i : sc.instances) {
      if (outcome.instances.size() >= k) break;
      outcome.instances.push_back(i);
    }
    kept.push_back(std::move(sc));
  }
  outcome.concepts = std::move(kept);
  return outcome;
}

}  // namespace medrelax
