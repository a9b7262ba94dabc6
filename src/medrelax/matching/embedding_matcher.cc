#include "medrelax/matching/embedding_matcher.h"

#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {

EmbeddingMatcher::EmbeddingMatcher(const NameIndex* index, const SifModel* sif,
                                   EmbeddingMatcherOptions options)
    : index_(index), sif_(sif), options_(options) {
  const NameIndex::Entries entries = index_->entries();
  // Probe dimensionality with a first non-empty embedding.
  for (const NameEntry& entry : entries) {
    std::vector<double> v = sif_->Embed(Tokenize(entry.surface));
    if (!v.empty()) {
      dims_ = v.size();
      break;
    }
  }
  surface_embeddings_.assign(entries.size() * dims_, 0.0);
  for (size_t i = 0; i < entries.size(); ++i) {
    std::vector<double> v = sif_->Embed(Tokenize(entries[i].surface));
    if (v.size() == dims_) {
      std::copy(v.begin(), v.end(), surface_embeddings_.begin() + i * dims_);
    }
  }
}

std::optional<ConceptMatch> EmbeddingMatcher::Map(std::string_view term) const {
  std::string normalized = NormalizeTerm(term);
  if (normalized.empty()) return std::nullopt;

  // Exact normalized hit: full confidence, no embedding needed.
  std::vector<ConceptId> exact = index_->FindExact(normalized);
  if (!exact.empty()) return ConceptMatch{exact.front(), 1.0};

  if (dims_ == 0) return std::nullopt;
  std::vector<double> q = sif_->Embed(Tokenize(normalized));
  if (q.size() != dims_) return std::nullopt;
  double qnorm = 0.0;
  for (double x : q) qnorm += x * x;
  if (qnorm < 1e-24) return std::nullopt;  // fully OOV query term

  double best = options_.min_similarity;
  ConceptId best_concept = kInvalidConcept;
  const NameIndex::Entries entries = index_->entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const double* row = &surface_embeddings_[i * dims_];
    double sim = CosineSimilarity(q.data(), row, dims_);
    if (sim > best) {
      best = sim;
      best_concept = entries[i].concept_id;
    }
  }
  if (best_concept == kInvalidConcept) return std::nullopt;
  return ConceptMatch{best_concept, best};
}

}  // namespace medrelax
