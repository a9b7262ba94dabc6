#ifndef MEDRELAX_MATCHING_NAME_INDEX_H_
#define MEDRELAX_MATCHING_NAME_INDEX_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "medrelax/common/string_table.h"
#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// One indexed surface form of an external concept.
struct NameEntry {
  /// Normalized surface form (canonical name or synonym).
  CStringView surface;
  ConceptId concept_id = kInvalidConcept;
  /// True for the canonical name, false for synonyms.
  bool is_canonical = false;
};

/// NameEntryRecord::flags bit of a canonical name.
inline constexpr uint32_t kNameEntryCanonical = 1u;

/// Stored form of an entry's owner (the surface lives in a string table).
struct NameEntryRecord {
  ConceptId concept_id;
  uint32_t flags;  ///< kNameEntryCanonical
};
static_assert(sizeof(NameEntryRecord) == 8, "on-disk layout is frozen");

/// One slot of the trigram key table; `id == kEmptySlot` marks a free
/// slot.
struct TrigramSlot {
  uint32_t key;
  uint32_t id;
};
static_assert(sizeof(TrigramSlot) == 8, "on-disk layout is frozen");

/// Free slot marker in both hash tables.
inline constexpr uint32_t kEmptySlot = UINT32_MAX;

/// Everything a NameIndex reads, as views. Like ConceptDag, the index
/// either owns the storage behind them (built from a DAG) or borrows it
/// from a flat image's sections. The fuzzy tables (trigram postings and
/// length buckets) are empty for an index borrowed from an exact-mapper
/// image, which never reads them.
struct NameIndexViews {
  /// Normalized surfaces, one per entry.
  StringTableView surfaces;
  std::span<const NameEntryRecord> records;
  /// Open-addressing table of entry indexes keyed by
  /// ExactSlotHash(surface), linear probing, power-of-two size, at least
  /// one free slot. Entries were inserted in ascending index order, so
  /// equal surfaces sit along their probe chain in that order.
  std::span<const uint32_t> exact_slots;
  /// Trigram key -> dense id, linear probing from TrigramSlotHash(key),
  /// power-of-two size, at least one free slot.
  std::span<const TrigramSlot> trigram_slots;
  /// Postings of dense id k: trigram_postings[trigram_offsets[k] ..
  /// trigram_offsets[k + 1]), ascending entry indexes.
  std::span<const uint32_t> trigram_offsets;
  std::span<const uint32_t> trigram_postings;
  /// Entries of surface length n, ascending: by_length[length_offsets[n]
  /// .. length_offsets[n + 1]); length_offsets has max length + 2 values.
  std::span<const uint32_t> length_offsets;
  std::span<const uint32_t> by_length;

  [[nodiscard]] bool has_fuzzy_tables() const {
    return length_offsets.size() >= 2;
  }
};

/// The exact table's hash: FNV over the normalized bytes (never
/// std::hash, so an image means the same on every host), top bits taken
/// after a Fibonacci multiply.
[[nodiscard]] size_t ExactSlotHash(std::string_view normalized,
                                   size_t num_slots);

/// The trigram table's hash: Fibonacci hashing of the packed key.
[[nodiscard]] inline size_t TrigramSlotHash(uint32_t key, size_t num_slots) {
  return (key * 2654435761u) & (num_slots - 1);
}

/// Normalized-name index over an external knowledge source, shared by all
/// mapping functions (Section 3: "matching the instance data and external
/// concepts with exactly the same names, very similar names in terms of
/// edit distance, or similar names in terms of word embeddings").
///
/// Exact lookup probes a hashed slot table; fuzzy lookups use
/// character-trigram postings plus length buckets so the edit-distance
/// matcher verifies only entries that can be within its threshold,
/// without scanning the whole vocabulary. Trigrams are packed into
/// integer keys (length tag + up to 3 bytes) rather than heap strings.
/// All of it is flat arrays, so medrelax_ingest writes the index into the
/// image and a served snapshot borrows it with no build step.
///
/// Both fuzzy lookups mark the entries they touch in a thread-local,
/// epoch-stamped count array sized to the largest index the thread has
/// queried, so a lookup allocates no map and never clears the array (one
/// epoch bump per call; a full reset only when the 32-bit epoch wraps).
/// Concurrent lookups on one index, and one thread alternating between
/// indexes of different sizes, are safe.
class NameIndex {
 public:
  /// Builds the tables from each concept's canonical name and synonyms;
  /// the fuzzy ones only when `fuzzy_tables` (an exact-match deployment
  /// never reads them). Borrows `dag`, which must outlive the index.
  explicit NameIndex(const ConceptDag* dag, bool fuzzy_tables = true);

  /// An index reading `views`, whose storage must outlive it. The caller
  /// vouches for their consistency (the image reader bounds-checks every
  /// slot, offset and posting before it borrows).
  NameIndex(const ConceptDag* dag, const NameIndexViews& views);

  ~NameIndex();
  NameIndex(const NameIndex&) = delete;
  NameIndex& operator=(const NameIndex&) = delete;

  /// Concepts whose canonical name or synonym normalizes to exactly the
  /// normalized input (usually 0 or 1; synonym collisions can yield more),
  /// in ascending order of their first matching entry index.
  [[nodiscard]]
  std::vector<ConceptId> FindExact(std::string_view surface) const;

  /// Entry indexes, ascending, of every surface that can be within
  /// `max_distance` edits of the normalized input: a superset of the
  /// entries a brute-force BoundedLevenshtein scan would accept, so a
  /// matcher that verifies all of them is exact. Empty when the index has
  /// no fuzzy tables (borrowed from an exact-mapper image).
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

  /// Random-access view of the indexed entries.
  class Entries {
   public:
    explicit Entries(const NameIndexViews* views) : views_(views) {}
    [[nodiscard]] size_t size() const { return views_->records.size(); }
    [[nodiscard]] NameEntry operator[](size_t i) const {
      const NameEntryRecord& record = views_->records[i];
      return {views_->surfaces[i], record.concept_id,
              (record.flags & kNameEntryCanonical) != 0};
    }

    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NameEntry;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = NameEntry;
      Iterator() = default;
      Iterator(const NameIndexViews* views, size_t i) : views_(views), i_(i) {}
      NameEntry operator*() const { return Entries(views_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++i_;
        return old;
      }
      bool operator==(const Iterator& other) const { return i_ == other.i_; }

     private:
      const NameIndexViews* views_ = nullptr;
      size_t i_ = 0;
    };
    [[nodiscard]] Iterator begin() const { return {views_, 0}; }
    [[nodiscard]] Iterator end() const { return {views_, size()}; }

   private:
    const NameIndexViews* views_;
  };

  /// All indexed entries.
  [[nodiscard]] Entries entries() const { return Entries(&views_); }

  [[nodiscard]] const ConceptDag& dag() const { return *dag_; }

  /// The views this index reads (what the image writer serializes).
  [[nodiscard]] const NameIndexViews& views() const { return views_; }

 private:
  struct Storage;

  /// The entry indexes containing trigram `key`, ascending; empty when
  /// the trigram was never seen.
  [[nodiscard]] std::span<const uint32_t> Postings(uint32_t key) const;
  /// The counting kernel: adds one to the calling thread's count of entry
  /// e for every pair of equal trigram occurrences in `normalized` and in
  /// e's surface, and returns the entries it touched, in first-touch
  /// order. Final counts stay readable through the thread-local counter
  /// until the thread's next lookup.
  std::vector<uint32_t> CountSharedTrigrams(std::string_view normalized) const;

  const ConceptDag* dag_;
  /// Null when the views borrow a mapped image.
  std::unique_ptr<const Storage> storage_;
  NameIndexViews views_;
};

}  // namespace medrelax

#endif  // MEDRELAX_MATCHING_NAME_INDEX_H_
