#include "medrelax/matching/name_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "medrelax/common/checksum.h"
#include "medrelax/text/normalize.h"

namespace medrelax {

namespace {

/// Packs a 1-3 character gram into one integer key. The length tag in the
/// top byte keeps short surface forms (CharNgrams returns the whole
/// string when it is <= n chars) distinct from true trigrams that happen
/// to share a byte prefix.
uint32_t PackGram(std::string_view gram) {
  uint32_t key = static_cast<uint32_t>(gram.size()) << 24;
  for (size_t i = 0; i < gram.size(); ++i) {
    key |= static_cast<uint32_t>(static_cast<unsigned char>(gram[i]))
           << (8 * (2 - i));
  }
  return key;
}

/// Visits exactly the grams CharNgrams(s, 3) would return, as packed
/// keys, without materializing a string per gram.
template <typename Fn>
void ForEachTrigramKey(std::string_view s, Fn&& fn) {
  if (s.empty()) return;
  if (s.size() <= 3) {
    fn(PackGram(s));
    return;
  }
  for (size_t i = 0; i + 3 <= s.size(); ++i) fn(PackGram(s.substr(i, 3)));
}

/// The calling thread's shared-trigram counts, one slot per entry of the
/// largest index the thread has queried. A slot counts for the current
/// lookup only while its stamp equals the current epoch, so starting a
/// lookup is one increment rather than a clear, and the slots left by a
/// lookup on another index can never leak into this one.
class SharedGramCounter {
 public:
  /// Starts a lookup over an index of `num_entries` entries.
  void Begin(size_t num_entries) {
    if (slots_.size() < num_entries) slots_.resize(num_entries);
    if (++epoch_ == 0) {
      // Wrapped: a stamp from 2^32 lookups ago would alias the new epoch.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  /// Adds one to `entry`'s count and returns the new count. Saturates,
  /// so a count passes each value at most once.
  uint32_t Add(uint32_t entry) {
    Slot& slot = slots_[entry];
    if (slot.epoch != epoch_) slot = {epoch_, 0};
    if (slot.count != std::numeric_limits<uint32_t>::max()) ++slot.count;
    return slot.count;
  }

  [[nodiscard]] uint32_t Count(uint32_t entry) const {
    const Slot& slot = slots_[entry];
    return slot.epoch == epoch_ ? slot.count : 0;
  }

 private:
  struct Slot {
    uint32_t epoch = 0;
    uint32_t count = 0;
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
};

SharedGramCounter& ThreadCounter() {
  thread_local SharedGramCounter counter;
  return counter;
}

/// The slot holding `key` in a linear-probing trigram table, or the free
/// slot where it would go. The table has a free slot, so this ends.
size_t ProbeTrigram(std::span<const TrigramSlot> slots, uint32_t key) {
  const size_t mask = slots.size() - 1;
  size_t slot = TrigramSlotHash(key, slots.size());
  while (slots[slot].id != kEmptySlot && slots[slot].key != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

}  // namespace

/// The heap arrays behind an index built from a DAG.
struct NameIndex::Storage {
  StringTableBuilder surfaces;
  std::vector<NameEntryRecord> records;
  std::vector<uint32_t> exact_slots;
  std::vector<TrigramSlot> trigram_slots;
  std::vector<uint32_t> trigram_offsets;
  std::vector<uint32_t> trigram_postings;
  std::vector<uint32_t> length_offsets;
  std::vector<uint32_t> by_length;

  void BuildExactSlots();
  void BuildTrigramPostings();
  void BuildLengthBuckets();
};

size_t ExactSlotHash(std::string_view normalized, size_t num_slots) {
  const int bits = std::countr_zero(num_slots);
  if (bits == 0) return 0;
  const uint64_t mixed = FnvChecksum(normalized) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(mixed >> (64 - bits));
}

void NameIndex::Storage::BuildExactSlots() {
  // More than twice the entries, so the load stays under 1/2 and at
  // least one slot is free: a probe for an absent surface terminates.
  size_t num_slots = 2;
  while (num_slots <= 2 * records.size()) num_slots *= 2;
  exact_slots.assign(num_slots, kEmptySlot);
  const StringTableView view = surfaces.view();
  for (size_t e = 0; e < records.size(); ++e) {
    size_t slot = ExactSlotHash(view[e], num_slots);
    while (exact_slots[slot] != kEmptySlot) {
      slot = (slot + 1) & (num_slots - 1);
    }
    exact_slots[slot] = static_cast<uint32_t>(e);
  }
}

void NameIndex::Storage::BuildTrigramPostings() {
  // Pass 1: intern keys by linear probing over a power-of-two slot array
  // (load kept under 1/2), count postings per key (counts staged in
  // trigram_offsets[id + 1]), and record each posting's dense id — grams
  // arrive in entry order, so pass 2 can replay the ids against per-entry
  // gram counts without probing the slot table a second time.
  trigram_offsets.assign(1, 0);
  trigram_slots.assign(1024, TrigramSlot{0, kEmptySlot});
  const auto intern = [this](uint32_t key) {
    if ((trigram_offsets.size() - 1) * 2 >= trigram_slots.size()) {
      std::vector<TrigramSlot> old = std::move(trigram_slots);
      trigram_slots.assign(old.size() * 2, TrigramSlot{0, kEmptySlot});
      for (const TrigramSlot& s : old) {
        if (s.id == kEmptySlot) continue;
        trigram_slots[ProbeTrigram(trigram_slots, s.key)] = s;
      }
    }
    const size_t slot = ProbeTrigram(trigram_slots, key);
    if (trigram_slots[slot].id == kEmptySlot) {
      trigram_slots[slot] = {key,
                             static_cast<uint32_t>(trigram_offsets.size() - 1)};
      trigram_offsets.push_back(0);
    }
    return trigram_slots[slot].id;
  };
  const StringTableView view = surfaces.view();
  std::vector<uint32_t> ids;
  ids.reserve(4 * records.size());
  for (size_t e = 0; e < records.size(); ++e) {
    ForEachTrigramKey(view[e], [&](uint32_t key) {
      const uint32_t id = intern(key);
      ++trigram_offsets[id + 1];
      ids.push_back(id);
    });
  }
  // Exclusive scan turns counts into CSR offsets.
  for (size_t k = 1; k < trigram_offsets.size(); ++k) {
    trigram_offsets[k] += trigram_offsets[k - 1];
  }
  trigram_postings.resize(trigram_offsets.back());
  // Pass 2: place each posting at its key's cursor. The live cursors are
  // one per distinct trigram, so the writes stay cache-resident even
  // with millions of postings.
  std::vector<uint32_t> cursor(trigram_offsets.begin(),
                               trigram_offsets.end() - 1);
  size_t next = 0;
  for (size_t e = 0; e < records.size(); ++e) {
    const size_t length = view[e].size();
    if (length == 0) continue;
    const size_t grams = length <= 3 ? 1 : length - 2;
    for (size_t g = 0; g < grams; ++g) {
      trigram_postings[cursor[ids[next++]]++] = static_cast<uint32_t>(e);
    }
  }
}

void NameIndex::Storage::BuildLengthBuckets() {
  // Counting sort of entry indexes by surface length; the stable
  // placement keeps each bucket in ascending entry order.
  const StringTableView view = surfaces.view();
  size_t max_length = 0;
  for (size_t e = 0; e < records.size(); ++e) {
    max_length = std::max(max_length, view[e].size());
  }
  length_offsets.assign(max_length + 2, 0);
  for (size_t e = 0; e < records.size(); ++e) {
    ++length_offsets[view[e].size() + 1];
  }
  for (size_t n = 1; n < length_offsets.size(); ++n) {
    length_offsets[n] += length_offsets[n - 1];
  }
  by_length.resize(records.size());
  std::vector<uint32_t> cursor(length_offsets.begin(),
                               length_offsets.end() - 1);
  for (size_t e = 0; e < records.size(); ++e) {
    by_length[cursor[view[e].size()]++] = static_cast<uint32_t>(e);
  }
}

NameIndex::NameIndex(const ConceptDag* dag, bool fuzzy_tables) : dag_(dag) {
  auto storage = std::make_unique<Storage>();
  const auto add_entry = [&storage](ConceptId id, std::string_view raw,
                                    bool canonical) {
    const std::string normalized = NormalizeTerm(raw);
    if (normalized.empty()) return;
    storage->surfaces.Add(normalized);
    storage->records.push_back(
        {id, canonical ? kNameEntryCanonical : 0u});
  };
  for (ConceptId id = 0; id < dag_->num_concepts(); ++id) {
    add_entry(id, dag_->name(id), /*canonical=*/true);
    for (std::string_view synonym : dag_->synonyms(id)) {
      add_entry(id, synonym, /*canonical=*/false);
    }
  }
  storage->BuildExactSlots();
  if (fuzzy_tables) {
    storage->BuildTrigramPostings();
    storage->BuildLengthBuckets();
  }
  views_.surfaces = storage->surfaces.view();
  views_.records = storage->records;
  views_.exact_slots = storage->exact_slots;
  views_.trigram_slots = storage->trigram_slots;
  views_.trigram_offsets = storage->trigram_offsets;
  views_.trigram_postings = storage->trigram_postings;
  views_.length_offsets = storage->length_offsets;
  views_.by_length = storage->by_length;
  storage_ = std::move(storage);
}

NameIndex::NameIndex(const ConceptDag* dag, const NameIndexViews& views)
    : dag_(dag), views_(views) {}

NameIndex::~NameIndex() = default;

std::span<const uint32_t> NameIndex::Postings(uint32_t key) const {
  const std::span<const TrigramSlot> slots = views_.trigram_slots;
  if (slots.empty()) return {};
  const uint32_t id = slots[ProbeTrigram(slots, key)].id;
  if (id == kEmptySlot) return {};
  const std::span<const uint32_t> offsets = views_.trigram_offsets;
  return views_.trigram_postings.subspan(offsets[id],
                                         offsets[id + 1] - offsets[id]);
}

std::vector<ConceptId> NameIndex::FindExact(std::string_view surface) const {
  const std::span<const uint32_t> slots = views_.exact_slots;
  if (slots.empty()) return {};
  const std::string normalized = NormalizeTerm(surface);
  // Equal surfaces lie along one probe chain in ascending entry order,
  // so the hits arrive canonical-first; keep each concept's first.
  std::vector<ConceptId> out;
  const size_t mask = slots.size() - 1;
  for (size_t slot = ExactSlotHash(normalized, slots.size());
       slots[slot] != kEmptySlot; slot = (slot + 1) & mask) {
    const uint32_t e = slots[slot];
    if (views_.surfaces[e] != normalized) continue;
    const ConceptId id = views_.records[e].concept_id;
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

std::vector<uint32_t> NameIndex::CountSharedTrigrams(
    std::string_view normalized) const {
  SharedGramCounter& counter = ThreadCounter();
  counter.Begin(views_.records.size());
  std::vector<uint32_t> touched;
  ForEachTrigramKey(normalized, [&](uint32_t gram) {
    for (uint32_t entry : Postings(gram)) {
      if (counter.Add(entry) == 1) touched.push_back(entry);
    }
  });
  return touched;
}

std::vector<size_t> NameIndex::CandidatesWithin(std::string_view normalized,
                                                size_t max_distance) const {
  if (!views_.has_fuzzy_tables()) return {};
  const std::span<const uint32_t> length_offsets = views_.length_offsets;
  const size_t length = normalized.size();
  const size_t max_length = length_offsets.size() - 2;
  const size_t lo = length > max_distance ? length - max_distance : 0;
  const size_t hi = length < max_length && max_length - length > max_distance
                        ? length + max_distance
                        : max_length;
  std::vector<size_t> out;
  // T = |s| - 2 - 3 * max_distance >= 1, written so a huge max_distance
  // cannot overflow; then the |s| - 2 trigram occurrences number at
  // least 3 * max_distance + 1.
  if (length >= 3 && (length - 3) / 3 >= max_distance) {
    std::vector<std::span<const uint32_t>> postings;
    postings.reserve(length - 2);
    ForEachTrigramKey(normalized, [&](uint32_t gram) {
      postings.push_back(Postings(gram));
    });
    const size_t scanned = 3 * max_distance + 1;
    std::nth_element(postings.begin(), postings.begin() + scanned,
                     postings.end(),
                     [](std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
                       return a.size() < b.size();
                     });
    SharedGramCounter& counter = ThreadCounter();
    counter.Begin(views_.records.size());
    for (size_t g = 0; g < scanned; ++g) {
      for (uint32_t entry : postings[g]) {
        if (counter.Add(entry) != 1) continue;  // already seen
        const size_t n = views_.surfaces[entry].size();
        if (n >= lo && n <= hi) out.push_back(entry);
      }
    }
  } else if (lo <= hi) {
    out.assign(views_.by_length.begin() + length_offsets[lo],
               views_.by_length.begin() + length_offsets[hi + 1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> NameIndex::CandidatesByTrigram(
    std::string_view normalized, size_t max_candidates) const {
  std::vector<uint32_t> touched = CountSharedTrigrams(normalized);
  const SharedGramCounter& counter = ThreadCounter();
  const size_t keep = std::min(max_candidates, touched.size());
  std::partial_sort(touched.begin(), touched.begin() + keep, touched.end(),
                    [&counter](uint32_t a, uint32_t b) {
                      const uint32_t count_a = counter.Count(a);
                      const uint32_t count_b = counter.Count(b);
                      if (count_a != count_b) return count_a > count_b;
                      return a < b;
                    });
  return std::vector<size_t>(touched.begin(), touched.begin() + keep);
}

}  // namespace medrelax
