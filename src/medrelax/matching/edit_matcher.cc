#include "medrelax/matching/edit_matcher.h"

#include <algorithm>
#include <vector>

#include "medrelax/text/edit_distance.h"
#include "medrelax/text/normalize.h"

namespace medrelax {

std::optional<ConceptMatch> EditDistanceMatcher::Map(
    std::string_view term) const {
  std::string normalized = NormalizeTerm(term);
  if (normalized.empty()) return std::nullopt;

  const std::vector<ConceptId> exact = index_->FindExact(normalized);
  if (!exact.empty()) return ConceptMatch{exact.front(), 1.0};

  size_t best_distance = options_.max_distance + 1;
  double best_tiebreak = -1.0;
  ConceptId best = kInvalidConcept;
  // Candidates arrive in ascending entry order, so keeping the first of
  // equal (distance, Jaro-Winkler) pairs picks the lowest entry index.
  // Bounding each verification by the best distance so far skips the
  // farther entries early without changing the winner.
  for (size_t entry_index :
       index_->CandidatesWithin(normalized, options_.max_distance)) {
    const NameEntry& entry = index_->entries()[entry_index];
    std::optional<size_t> d =
        BoundedLevenshtein(normalized, entry.surface,
                           std::min(best_distance, options_.max_distance));
    if (!d.has_value()) continue;  // so *d <= best_distance from here on
    const double jw = JaroWinkler(normalized, entry.surface);
    if (*d < best_distance || jw > best_tiebreak) {
      best_distance = *d;
      best_tiebreak = jw;
      best = entry.concept_id;
    }
  }
  if (best == kInvalidConcept) return std::nullopt;
  double span = static_cast<double>(options_.max_distance) + 1.0;
  return ConceptMatch{best, 1.0 - static_cast<double>(best_distance) / span};
}

}  // namespace medrelax
