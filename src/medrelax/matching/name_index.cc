#include "medrelax/matching/name_index.h"

#include <algorithm>
#include <limits>

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
/// keys, without materializing a string per gram — index construction is
/// the hot half of booting a snapshot from a flat image.
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

}  // namespace

size_t NameIndex::TrigramTable::Probe(uint32_t key) const {
  // Fibonacci hashing spreads the packed byte patterns; capacity is a
  // power of two so the mask replaces a modulo.
  const size_t mask = slots_.size() - 1;
  size_t slot = (key * 2654435761u) & mask;
  while (slots_[slot].second != kEmpty && slots_[slot].first != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void NameIndex::TrigramTable::Grow() {
  std::vector<std::pair<uint32_t, int32_t>> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : old.size() * 2, {0, kEmpty});
  for (const auto& [key, id] : old) {
    if (id != kEmpty) slots_[Probe(key)] = {key, id};
  }
}

uint32_t NameIndex::TrigramTable::Intern(uint32_t key) {
  if (slots_.empty() || (offsets_.size() - 1) * 2 >= slots_.size()) Grow();
  size_t slot = Probe(key);
  if (slots_[slot].second == kEmpty) {
    slots_[slot] = {key, static_cast<int32_t>(offsets_.size() - 1)};
    offsets_.push_back(0);  // counts accumulate here during pass 1
  }
  return static_cast<uint32_t>(slots_[slot].second);
}

void NameIndex::TrigramTable::Build(const std::vector<NameEntry>& entries) {
  // Pass 1: intern keys, count postings per key (counts staged in
  // offsets_[id + 1]), and record each posting's dense id — grams arrive
  // in entry order, so pass 2 can replay the ids against per-entry gram
  // counts without probing the slot table a second time.
  offsets_.assign(1, 0);
  std::vector<uint32_t> ids;
  ids.reserve(4 * entries.size());
  for (const NameEntry& entry : entries) {
    ForEachTrigramKey(entry.surface, [&](uint32_t key) {
      const uint32_t id = Intern(key);
      ++offsets_[id + 1];
      ids.push_back(id);
    });
  }
  // Exclusive scan turns counts into CSR offsets.
  for (size_t k = 1; k < offsets_.size(); ++k) offsets_[k] += offsets_[k - 1];
  postings_.resize(offsets_.back());
  // Pass 2: place each posting at its key's cursor. The live cursors are
  // one per distinct trigram, so the writes stay cache-resident even
  // with millions of postings.
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  size_t next = 0;
  for (size_t e = 0; e < entries.size(); ++e) {
    const size_t length = entries[e].surface.size();
    if (length == 0) continue;
    const size_t grams = length <= 3 ? 1 : length - 2;
    for (size_t g = 0; g < grams; ++g) {
      postings_[cursor[ids[next++]]++] = static_cast<uint32_t>(e);
    }
  }
}

std::span<const uint32_t> NameIndex::TrigramTable::Find(uint32_t key) const {
  if (slots_.empty()) return {};
  size_t slot = Probe(key);
  if (slots_[slot].second == kEmpty) return {};
  const auto id = static_cast<size_t>(slots_[slot].second);
  return std::span<const uint32_t>(postings_).subspan(
      offsets_[id], offsets_[id + 1] - offsets_[id]);
}

NameIndex::NameIndex(const ConceptDag* dag) : dag_(dag) {
  size_t num_surfaces = dag_->num_concepts();
  for (ConceptId id = 0; id < dag_->num_concepts(); ++id) {
    num_surfaces += dag_->synonyms(id).size();
  }
  entries_.reserve(num_surfaces);
  exact_.reserve(num_surfaces);
  for (ConceptId id = 0; id < dag_->num_concepts(); ++id) {
    auto add_entry = [&](const std::string& raw, bool canonical) {
      std::string normalized = NormalizeTerm(raw);
      if (normalized.empty()) return;
      entries_.push_back({std::move(normalized), id, canonical});
      exact_[entries_.back().surface].push_back(id);
    };
    add_entry(dag_->name(id), /*canonical=*/true);
    for (const std::string& syn : dag_->synonyms(id)) {
      add_entry(syn, /*canonical=*/false);
    }
  }
}

std::vector<ConceptId> NameIndex::FindExact(std::string_view surface) const {
  auto it = exact_.find(NormalizeTerm(surface));
  if (it == exact_.end()) return {};
  // Dedup while preserving order (canonical-first insertion order).
  std::vector<ConceptId> out;
  for (ConceptId id : it->second) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

void NameIndex::EnsureFuzzyTables() const {
  std::call_once(fuzzy_once_, [this] {
    trigram_postings_.Build(entries_);
    // Counting sort of entry indexes by surface length; the stable
    // placement keeps each bucket in ascending entry order.
    size_t max_length = 0;
    for (const NameEntry& entry : entries_) {
      max_length = std::max(max_length, entry.surface.size());
    }
    length_offsets_.assign(max_length + 2, 0);
    for (const NameEntry& entry : entries_) {
      ++length_offsets_[entry.surface.size() + 1];
    }
    for (size_t n = 1; n < length_offsets_.size(); ++n) {
      length_offsets_[n] += length_offsets_[n - 1];
    }
    by_length_.resize(entries_.size());
    std::vector<uint32_t> cursor(length_offsets_.begin(),
                                 length_offsets_.end() - 1);
    for (size_t e = 0; e < entries_.size(); ++e) {
      by_length_[cursor[entries_[e].surface.size()]++] =
          static_cast<uint32_t>(e);
    }
  });
}

std::vector<uint32_t> NameIndex::CountSharedTrigrams(
    std::string_view normalized) const {
  SharedGramCounter& counter = ThreadCounter();
  counter.Begin(entries_.size());
  std::vector<uint32_t> touched;
  ForEachTrigramKey(normalized, [&](uint32_t gram) {
    for (uint32_t entry : trigram_postings_.Find(gram)) {
      if (counter.Add(entry) == 1) touched.push_back(entry);
    }
  });
  return touched;
}

std::vector<size_t> NameIndex::CandidatesWithin(std::string_view normalized,
                                                size_t max_distance) const {
  EnsureFuzzyTables();
  const size_t length = normalized.size();
  const size_t max_length = length_offsets_.size() - 2;
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
      postings.push_back(trigram_postings_.Find(gram));
    });
    const size_t scanned = 3 * max_distance + 1;
    std::nth_element(postings.begin(), postings.begin() + scanned,
                     postings.end(),
                     [](std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
                       return a.size() < b.size();
                     });
    SharedGramCounter& counter = ThreadCounter();
    counter.Begin(entries_.size());
    for (size_t g = 0; g < scanned; ++g) {
      for (uint32_t entry : postings[g]) {
        if (counter.Add(entry) != 1) continue;  // already seen
        const size_t n = entries_[entry].surface.size();
        if (n >= lo && n <= hi) out.push_back(entry);
      }
    }
  } else if (lo <= hi) {
    out.assign(by_length_.begin() + length_offsets_[lo],
               by_length_.begin() + length_offsets_[hi + 1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> NameIndex::CandidatesByTrigram(
    std::string_view normalized, size_t max_candidates) const {
  EnsureFuzzyTables();
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
