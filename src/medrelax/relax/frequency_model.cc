#include "medrelax/relax/frequency_model.h"

#include <bit>
#include <cmath>
#include <cstdint>

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

FrequencyModel FrequencyModel::FromSparse(size_t num_contexts,
                                          double smoothing,
                                          std::span<const uint32_t> columns,
                                          std::span<const double> rows) {
  const size_t num_rows = num_contexts + 1;
  MEDRELAX_CHECK(!rows.empty() && rows.size() % num_rows == 0)
      << "frequency rows do not factor into " << num_rows << " rows";
  FrequencyModel model;
  model.num_concepts_ = columns.size();
  model.num_contexts_ = num_contexts;
  model.smoothing_ = smoothing;
  model.columns_ = columns;
  model.rows_ = rows;
  model.FillIc();
  return model;
}

void FrequencyModel::FillIc() {
  stride_ = rows_.size() / (num_contexts_ + 1);
  ic_.resize(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const double f = rows_[i];
    ic_[i] = f >= 1.0 ? 0.0 : -std::log(f);
  }
  normalized_ = true;
}

size_t FrequencyModel::Index(ConceptId id, ContextId ctx) const {
  return RowOf(ctx) * num_concepts_ + id;
}

void FrequencyModel::SetRaw(ConceptId id, ContextId ctx, double raw) {
  MEDRELAX_CHECK(!raw_.empty()) << "SetRaw on a borrowed-table model";
  MEDRELAX_CHECK(id < num_concepts_);
  MEDRELAX_CHECK(ctx < num_contexts_);
  raw_[Index(id, ctx)] = raw;
}

double FrequencyModel::Raw(ConceptId id, ContextId ctx) const {
  return raw_[Index(id, ctx)];
}

void FrequencyModel::Normalize(ConceptId root) {
  MEDRELAX_CHECK(!raw_.empty()) << "Normalize on a borrowed-table model";
  MEDRELAX_CHECK(root < num_concepts_);
  const size_t n = num_concepts_;
  const size_t num_rows = num_contexts_ + 1;
  // Aggregate row = sum over context rows.
  for (ConceptId id = 0; id < n; ++id) {
    double total = 0.0;
    for (ContextId ctx = 0; ctx < num_contexts_; ++ctx) {
      total += raw_[Index(id, ctx)];
    }
    raw_[Index(id, kNoContext)] = total;
  }
  std::vector<double> root_values(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    root_values[row] = raw_[row * n + root] + smoothing_;
  }
  const auto bits = [&](size_t row, ConceptId id) {
    return std::bit_cast<uint64_t>((raw_[row * n + id] + smoothing_) /
                                   root_values[row]);
  };
  // Each row's default is its majority value (a Boyer-Moore vote): any
  // value would serve, and the majority leaves the fewest columns.
  std::vector<uint64_t> defaults(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    uint64_t candidate = 0;
    size_t votes = 0;
    for (ConceptId id = 0; id < n; ++id) {
      const uint64_t value = bits(row, id);
      if (votes == 0) candidate = value;
      votes = value == candidate ? votes + 1 : votes - 1;
    }
    defaults[row] = candidate;
  }
  std::vector<bool> has_column(n, false);
  for (size_t row = 0; row < num_rows; ++row) {
    for (ConceptId id = 0; id < n; ++id) {
      if (bits(row, id) != defaults[row]) has_column[id] = true;
    }
  }
  std::vector<ConceptId> owners;
  for (ConceptId id = 0; id < n; ++id) {
    if (has_column[id]) owners.push_back(id);
  }
  const size_t m = owners.size();
  owned_columns_.assign(n, static_cast<uint32_t>(m));
  for (size_t column = 0; column < m; ++column) {
    owned_columns_[owners[column]] = static_cast<uint32_t>(column);
  }
  owned_rows_.resize(num_rows * (m + 1));
  for (size_t row = 0; row < num_rows; ++row) {
    double* out = owned_rows_.data() + row * (m + 1);
    for (size_t column = 0; column < m; ++column) {
      out[column] = std::bit_cast<double>(bits(row, owners[column]));
    }
    out[m] = std::bit_cast<double>(defaults[row]);
  }
  columns_ = owned_columns_;
  rows_ = owned_rows_;
  FillIc();
}

double FrequencyModel::Frequency(ConceptId id, ContextId ctx) const {
  MEDRELAX_CHECK(normalized_) << "Normalize() must run before Frequency()";
  return rows_[RowOf(ctx) * stride_ + columns_[id]];
}

double FrequencyModel::Ic(ConceptId id, ContextId ctx) const {
  MEDRELAX_CHECK(normalized_) << "Normalize() must run before Ic()";
  return ic_[RowOf(ctx) * stride_ + columns_[id]];
}

FrequencyModel::IcRow FrequencyModel::IcRowOf(ContextId ctx) const {
  // No normalization check: the relaxer takes a row for every request,
  // and a model of no concepts (never normalized) is read by none.
  return IcRow(ic_.data() + RowOf(ctx) * stride_, columns_.data());
}

size_t FrequencyModel::num_columns() const {
  MEDRELAX_CHECK(normalized_) << "num_columns() on an unnormalized model";
  return stride_ - 1;
}

std::span<const uint32_t> FrequencyModel::columns() const {
  MEDRELAX_CHECK(normalized_) << "columns() on an unnormalized model";
  return columns_;
}

std::span<const double> FrequencyModel::rows() const {
  MEDRELAX_CHECK(normalized_) << "rows() on an unnormalized model";
  return rows_;
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
      for (ConceptId child : dag.children(id)) {
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
