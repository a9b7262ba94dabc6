#ifndef MEDRELAX_MATCHING_EDIT_MATCHER_H_
#define MEDRELAX_MATCHING_EDIT_MATCHER_H_

#include <cstddef>
#include <optional>
#include <string>

#include "medrelax/matching/matcher.h"
#include "medrelax/matching/name_index.h"

namespace medrelax {

/// Options for the EDIT mapping method.
struct EditMatcherOptions {
  /// Edit-distance acceptance threshold τ (paper uses τ = 2, Section 7.2).
  size_t max_distance = 2;
};

/// EDIT mapping method of Section 7.2: approximate string matching with an
/// edit-distance threshold.
///
/// Map is exact-first: a term whose normalized form is an indexed surface
/// maps to FindExact()[0], the concept of the lowest-index entry with
/// that surface. Otherwise every entry NameIndex::CandidatesWithin
/// returns is verified with BoundedLevenshtein, and the winner is the
/// minimum distance, then the highest Jaro-Winkler similarity, then the
/// lowest entry index. Because CandidatesWithin is a superset of the
/// entries within τ, the answer equals a brute-force scan of the whole
/// vocabulary and never depends on the blocking step. Map is const and
/// safe to call concurrently (the index's counting scratch is
/// thread-local).
class EditDistanceMatcher : public MappingFunction {
 public:
  /// Borrows `index`, which must outlive the matcher.
  EditDistanceMatcher(const NameIndex* index, EditMatcherOptions options)
      : index_(index), options_(options) {}

  std::string name() const override { return "EDIT"; }

  std::optional<ConceptMatch> Map(std::string_view term) const override;

 private:
  const NameIndex* index_;
  EditMatcherOptions options_;
};

}  // namespace medrelax

#endif  // MEDRELAX_MATCHING_EDIT_MATCHER_H_
