#include "medrelax/relax/frequency_model.h"

#include <cmath>

#include "medrelax/common/logging.h"
#include "medrelax/graph/topology.h"

namespace medrelax {

FrequencyModel::FrequencyModel(size_t num_concepts, size_t num_contexts,
                               double smoothing)
    : num_concepts_(num_concepts),
      num_contexts_(num_contexts),
      smoothing_(smoothing) {
  raw_.assign((num_contexts_ + 1) * num_concepts_, 0.0);
}

FrequencyModel FrequencyModel::FromNormalizedTable(
    size_t num_concepts, size_t num_contexts, double smoothing,
    std::span<const double> normalized) {
  MEDRELAX_CHECK(normalized.size() == (num_contexts + 1) * num_concepts)
      << "normalized table size mismatch";
  FrequencyModel model;
  model.num_concepts_ = num_concepts;
  model.num_contexts_ = num_contexts;
  model.smoothing_ = smoothing;
  model.borrowed_ = normalized;
  model.normalized_ = true;
  return model;
}

size_t FrequencyModel::Index(ConceptId id, ContextId ctx) const {
  size_t row = (ctx == kNoContext) ? num_contexts_ : ctx;
  return row * num_concepts_ + id;
}

void FrequencyModel::SetRaw(ConceptId id, ContextId ctx, double raw) {
  MEDRELAX_CHECK(borrowed_.empty()) << "SetRaw on a borrowed-table model";
  MEDRELAX_CHECK(id < num_concepts_);
  MEDRELAX_CHECK(ctx < num_contexts_);
  raw_[Index(id, ctx)] = raw;
}

double FrequencyModel::Raw(ConceptId id, ContextId ctx) const {
  return raw_[Index(id, ctx)];
}

void FrequencyModel::Normalize(ConceptId root) {
  MEDRELAX_CHECK(borrowed_.empty()) << "Normalize on a borrowed-table model";
  MEDRELAX_CHECK(root < num_concepts_);
  // Aggregate row = sum over context rows.
  for (ConceptId id = 0; id < num_concepts_; ++id) {
    double total = 0.0;
    for (ContextId ctx = 0; ctx < num_contexts_; ++ctx) {
      total += raw_[Index(id, ctx)];
    }
    raw_[Index(id, kNoContext)] = total;
  }
  normalized_freq_.assign(raw_.size(), 0.0);
  for (size_t row = 0; row <= num_contexts_; ++row) {
    double root_value = raw_[row * num_concepts_ + root] + smoothing_;
    for (ConceptId id = 0; id < num_concepts_; ++id) {
      normalized_freq_[row * num_concepts_ + id] =
          (raw_[row * num_concepts_ + id] + smoothing_) / root_value;
    }
  }
  normalized_ = true;
}

double FrequencyModel::Frequency(ConceptId id, ContextId ctx) const {
  MEDRELAX_CHECK(normalized_) << "Normalize() must run before Frequency()";
  const double* table =
      borrowed_.empty() ? normalized_freq_.data() : borrowed_.data();
  return table[Index(id, ctx)];
}

double FrequencyModel::Ic(ConceptId id, ContextId ctx) const {
  double f = Frequency(id, ctx);
  if (f >= 1.0) return 0.0;
  return -std::log(f);
}

std::span<const double> FrequencyModel::NormalizedTable() const {
  MEDRELAX_CHECK(normalized_) << "NormalizedTable() on an unnormalized model";
  if (!borrowed_.empty()) return borrowed_;
  return {normalized_freq_.data(), normalized_freq_.size()};
}

Result<FrequencyModel> PropagateFrequencies(
    const ConceptDag& dag,
    const std::vector<std::vector<double>>& direct_per_context,
    ConceptId root, double smoothing) {
  MEDRELAX_ASSIGN_OR_RETURN(std::vector<ConceptId> topo,
                            TopologicalSortChildrenFirst(dag));
  const size_t num_contexts = direct_per_context.size();
  FrequencyModel freq(dag.num_concepts(), num_contexts, smoothing);
  std::vector<std::vector<double>> propagated(
      num_contexts, std::vector<double>(dag.num_concepts(), 0.0));
  for (ConceptId id : topo) {
    for (ContextId ctx = 0; ctx < num_contexts; ++ctx) {
      double f = id < direct_per_context[ctx].size()
                     ? direct_per_context[ctx][id]
                     : 0.0;
      for (ConceptId child : dag.NativeChildren(id)) {
        f += propagated[ctx][child];
      }
      propagated[ctx][id] = f;
      freq.SetRaw(id, ctx, f);
    }
  }
  freq.Normalize(root);
  return freq;
}

}  // namespace medrelax
