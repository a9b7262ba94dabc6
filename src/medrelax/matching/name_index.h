#ifndef MEDRELAX_MATCHING_NAME_INDEX_H_
#define MEDRELAX_MATCHING_NAME_INDEX_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// One indexed surface form of an external concept.
struct NameEntry {
  /// Normalized surface form (canonical name or synonym).
  std::string surface;
  ConceptId concept_id = kInvalidConcept;
  /// True for the canonical name, false for synonyms.
  bool is_canonical = false;
};

/// Normalized-name index over an external knowledge source, shared by all
/// mapping functions (Section 3: "matching the instance data and external
/// concepts with exactly the same names, very similar names in terms of
/// edit distance, or similar names in terms of word embeddings").
///
/// Exact lookup is hash-based; fuzzy lookups use character-trigram
/// postings plus length buckets so the edit-distance matcher verifies
/// only entries that can be within its threshold, without scanning the
/// whole vocabulary. Trigrams are packed into integer keys (length tag +
/// up to 3 bytes) rather than heap strings: index construction is on the
/// snapshot load path, where a 64k-concept vocabulary means millions of
/// postings.
///
/// Both fuzzy lookups mark the entries they touch in a thread-local,
/// epoch-stamped count array sized to the largest index the thread has
/// queried, so a lookup allocates no map and never clears the array (one
/// epoch bump per call; a full reset only when the 32-bit epoch wraps).
/// Concurrent lookups on one index, and one thread alternating between
/// indexes of different sizes, are safe.
class NameIndex {
 public:
  /// Builds the index from every concept's canonical name and synonyms.
  /// Borrows `dag`, which must outlive the index.
  explicit NameIndex(const ConceptDag* dag);

  /// Concepts whose canonical name or synonym normalizes to exactly the
  /// normalized input (usually 0 or 1; synonym collisions can yield more),
  /// in ascending order of their first matching entry index.
  [[nodiscard]]
  std::vector<ConceptId> FindExact(std::string_view surface) const;

  /// Entry indexes, ascending, of every surface that can be within
  /// `max_distance` edits of the normalized input: a superset of the
  /// entries a brute-force BoundedLevenshtein scan would accept, so a
  /// matcher that verifies all of them is exact.
  ///
  /// With T = |s| - 2 - 3 * max_distance >= 1 this is a prefix filter
  /// over the q = |s| - 2 trigram occurrences of s. Every edit destroys
  /// at most 3 of those occurrences, so a surface within max_distance
  /// edits keeps at least T of them; by pigeonhole it contains the gram
  /// of at least one of any q - T + 1 = 3 * max_distance + 1
  /// occurrences. Only the postings of the 3 * max_distance + 1 rarest
  /// occurrences (shortest postings; a gram absent from the vocabulary
  /// has empty postings and still counts) are scanned, the union is
  /// deduplicated and cut to the length window
  /// [|s| - max_distance, |s| + max_distance]. The cost is those
  /// postings plus one lookup per trigram of s, not the postings of
  /// every trigram: common grams such as " of" are never walked.
  /// Otherwise (short inputs) the whole length window is returned,
  /// which also covers 1-2 character surfaces whose packed gram never
  /// equals a true trigram.
  ///
  /// The postings and length buckets behind this are built lazily on
  /// the first fuzzy lookup (under std::call_once — concurrent queries
  /// are safe): exact-matcher deployments never look at trigrams, so
  /// booting a snapshot from a flat image stays free of the one
  /// vocabulary-sized pass this needs, and a fuzzy deployment pays it
  /// once on its first non-exact lookup (during ingestion for built
  /// snapshots).
  [[nodiscard]]
  std::vector<size_t> CandidatesWithin(std::string_view normalized,
                                       size_t max_distance) const;

  /// Entry indexes of surface forms sharing at least one character trigram
  /// with the normalized input, ranked by shared-trigram count (ties:
  /// lower entry index first). At most `max_candidates` entries. A
  /// diagnostic view that walks the postings of every trigram of the
  /// input; the ranked cut is not a sound blocking step, so no matcher
  /// uses it.
  [[nodiscard]]
  std::vector<size_t> CandidatesByTrigram(std::string_view normalized,
                                          size_t max_candidates) const;

  /// All indexed entries.
  [[nodiscard]]
  const std::vector<NameEntry>& entries() const { return entries_; }

  [[nodiscard]] const ConceptDag& dag() const { return *dag_; }

 private:
  /// Trigram -> postings, stored CSR. A 64k-concept vocabulary produces
  /// ~3M postings over only a few thousand distinct trigram keys, and
  /// index construction sits directly on the snapshot image load path —
  /// so the table is built in two counting passes into one flat postings
  /// array (no per-key vector growth, cursor writes stay cache-resident)
  /// with keys resolved by linear probing over a flat power-of-two slot
  /// array instead of a node-based map.
  class TrigramTable {
   public:
    /// Builds the table over the (already normalized) entry surfaces.
    void Build(const std::vector<NameEntry>& entries);
    /// The entry indexes containing `key`, in ascending entry order;
    /// empty when the trigram was never seen.
    [[nodiscard]] std::span<const uint32_t> Find(uint32_t key) const;

   private:
    /// Dense id of `key`, interning it on first sight.
    uint32_t Intern(uint32_t key);
    /// Slot index of `key`, or of the empty slot where it would insert.
    [[nodiscard]] size_t Probe(uint32_t key) const;
    void Grow();

    static constexpr int32_t kEmpty = -1;
    /// (key, dense id) pairs; id kEmpty marks a free slot. Capacity is a
    /// power of two, load kept under 1/2.
    std::vector<std::pair<uint32_t, int32_t>> slots_;
    /// Postings of dense id k live in
    /// postings_[offsets_[k] .. offsets_[k + 1]).
    std::vector<uint32_t> offsets_;
    std::vector<uint32_t> postings_;
  };

  /// Builds the trigram postings and length buckets on first use (see
  /// CandidatesWithin's contract).
  void EnsureFuzzyTables() const;
  /// The counting kernel: adds one to the calling thread's count of entry
  /// e for every pair of equal trigram occurrences in `normalized` and in
  /// e's surface, and returns the entries it touched, in first-touch
  /// order. Final counts stay readable through the thread-local counter
  /// until the thread's next lookup.
  std::vector<uint32_t> CountSharedTrigrams(std::string_view normalized) const;

  const ConceptDag* dag_;
  std::vector<NameEntry> entries_;
  /// Keys view into entries_' surfaces (no second copy of the
  /// vocabulary). Safe because entries_ is reserved to its exact final
  /// size before the first insert and never touched afterwards — small
  /// (SSO) strings live inside the vector's buffer, so a reallocation
  /// would dangle these views.
  std::unordered_map<std::string_view, std::vector<ConceptId>> exact_;
  /// Lazily built by EnsureFuzzyTables; mutable so the logically-const
  /// first lookup can materialize them.
  mutable std::once_flag fuzzy_once_;
  mutable TrigramTable trigram_postings_;
  /// Entry indexes grouped by surface length, ascending within a group:
  /// entries of length n live in
  /// by_length_[length_offsets_[n] .. length_offsets_[n + 1]).
  mutable std::vector<uint32_t> length_offsets_;
  mutable std::vector<uint32_t> by_length_;
};

}  // namespace medrelax

#endif  // MEDRELAX_MATCHING_NAME_INDEX_H_
