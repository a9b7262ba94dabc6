// Tests of the name index and the three mapping functions of Section 7.2.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/datasets/snomed_generator.h"
#include "medrelax/embedding/word_vectors.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/embedding_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/text/edit_distance.h"
#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {
namespace {

TEST(NameIndex, ExactFindsCanonicalAndSynonyms) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  std::vector<ConceptId> hits = index.FindExact("Kidney Disease");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], fx->kidney_disease);
  // Synonym lookup.
  hits = index.FindExact("nephropathy");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], fx->kidney_disease);
  EXPECT_TRUE(index.FindExact("unknown thing").empty());
}

TEST(NameIndex, TrigramBlockingFindsSimilarSurfaces) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  std::vector<size_t> candidates =
      index.CandidatesByTrigram("kidney diseas", 10);
  ASSERT_FALSE(candidates.empty());
  // The top candidate shares the most trigrams: "kidney disease".
  EXPECT_EQ(index.entries()[candidates[0]].surface, "kidney disease");
}

TEST(ExactMatcher, MapsOnlyExactNormalizedNames) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  ExactMatcher matcher(&index);
  EXPECT_EQ(matcher.name(), "EXACT");
  auto m = matcher.Map("KIDNEY-DISEASE");  // normalization handles case/punct
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
  EXPECT_DOUBLE_EQ(m->score, 1.0);
  EXPECT_FALSE(matcher.Map("kidny disease").has_value());  // typo: no match
}

TEST(EditMatcher, MapsWithinThreshold) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  EXPECT_EQ(matcher.name(), "EDIT");
  auto m = matcher.Map("kidny disease");  // distance 1
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
  EXPECT_LT(m->score, 1.0);
  // Exact surfaces still map with the top score.
  m = matcher.Map("kidney disease");
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 1.0);
}

TEST(EditMatcher, RejectsBeyondTau) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditMatcherOptions opts;
  opts.max_distance = 1;
  EditDistanceMatcher matcher(&index, opts);
  EXPECT_FALSE(matcher.Map("kidny diseaze").has_value());  // distance 2
}

TEST(EditMatcher, MatchesSynonymSurfaces) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  auto m = matcher.Map("nephropathy");  // synonym, distance 0
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
}

// ---- EDIT matcher against a brute-force oracle -------------------------

// The EDIT contract spelled out as a whole-vocabulary scan: minimum
// BoundedLevenshtein, then highest Jaro-Winkler, then lowest entry index.
std::optional<ConceptMatch> BruteForceEdit(const NameIndex& index,
                                           std::string_view term,
                                           size_t max_distance) {
  const std::string normalized = NormalizeTerm(term);
  if (normalized.empty()) return std::nullopt;
  size_t best_distance = max_distance + 1;
  double best_jw = -1.0;
  ConceptId best = kInvalidConcept;
  for (const NameEntry& entry : index.entries()) {
    std::optional<size_t> d =
        BoundedLevenshtein(normalized, entry.surface, max_distance);
    if (!d.has_value()) continue;
    const double jw = JaroWinkler(normalized, entry.surface);
    if (*d < best_distance || (*d == best_distance && jw > best_jw)) {
      best_distance = *d;
      best_jw = jw;
      best = entry.concept_id;
    }
  }
  if (best == kInvalidConcept) return std::nullopt;
  return ConceptMatch{best, 1.0 - static_cast<double>(best_distance) /
                                      (static_cast<double>(max_distance) + 1)};
}

// One random edit: deletion, insertion, substitution or transposition
// (a transposition is two Levenshtein edits).
std::string RandomEdit(std::string s, Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz 0123456789";
  const auto pick = [&rng] {
    return kAlphabet[rng.UniformU64(sizeof(kAlphabet) - 1)];
  };
  const size_t pos = s.empty() ? 0 : rng.UniformU64(s.size());
  switch (s.size() < 2 ? 1 : rng.UniformU64(4)) {
    case 0:
      s.erase(pos, 1);
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), pick());
      break;
    case 2:
      s[pos] = pick();
      break;
    default:
      if (pos + 1 < s.size()) std::swap(s[pos], s[pos + 1]);
      break;
  }
  return s;
}

// A generated vocabulary plus hand-added 1-2 character surfaces, whose
// packed gram never equals a true trigram.
struct OracleWorld {
  ConceptDag dag;
  std::unique_ptr<NameIndex> index;
};

std::unique_ptr<OracleWorld> MakeOracleWorld(size_t num_concepts,
                                             uint64_t seed) {
  SnomedGeneratorOptions options;
  options.num_concepts = num_concepts;
  options.seed = seed;
  Result<GeneratedEks> eks = GenerateSnomedLike(options);
  EXPECT_TRUE(eks.ok());
  if (!eks.ok()) return nullptr;
  auto world = std::make_unique<OracleWorld>();
  world->dag = std::move(eks->dag);
  Result<ConceptId> short_name = world->dag.AddConcept("ab");
  EXPECT_TRUE(short_name.ok());
  if (short_name.ok()) {
    EXPECT_TRUE(world->dag.AddSynonym(*short_name, "q").ok());
  }
  world->index = std::make_unique<NameIndex>(&world->dag);
  return world;
}

// Exact surfaces, their one- and two-edit variants, short prefixes (the
// length-window path) and the 1-2 character neighbourhood.
std::vector<std::string> OracleQueries(const NameIndex& index, size_t samples,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> queries = {"ab", "a", "b", "q", "qq", "abc", "xb"};
  const std::vector<NameEntry>& entries = index.entries();
  for (size_t i = 0; i < samples; ++i) {
    const std::string& surface =
        entries[rng.UniformU64(entries.size())].surface;
    queries.push_back(surface);
    const std::string one = RandomEdit(surface, rng);
    queries.push_back(one);
    queries.push_back(RandomEdit(surface, rng));
    queries.push_back(RandomEdit(one, rng));
    queries.push_back(RandomEdit(RandomEdit(surface, rng), rng));
    const size_t prefix = 2 + rng.UniformU64(7);  // 2-8 characters
    queries.push_back(surface.substr(0, prefix));
    queries.push_back(RandomEdit(surface.substr(0, prefix), rng));
  }
  return queries;
}

TEST(EditMatcher, EqualsBruteForceOracle) {
  std::unique_ptr<OracleWorld> world = MakeOracleWorld(1500, 91);
  ASSERT_NE(world, nullptr);
  for (size_t tau : {size_t{1}, size_t{2}}) {
    EditMatcherOptions options;
    options.max_distance = tau;
    EditDistanceMatcher matcher(world->index.get(), options);
    size_t mapped = 0;
    for (const std::string& query :
         OracleQueries(*world->index, 300, 17 + tau)) {
      const std::optional<ConceptMatch> got = matcher.Map(query);
      const std::optional<ConceptMatch> want =
          BruteForceEdit(*world->index, query, tau);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "tau=" << tau << " query='" << query << "'";
      if (!want.has_value()) continue;
      ++mapped;
      EXPECT_EQ(got->id, want->id)
          << "tau=" << tau << " query='" << query << "'";
      EXPECT_DOUBLE_EQ(got->score, want->score) << "query='" << query << "'";
    }
    EXPECT_GT(mapped, 700u) << "tau=" << tau;
  }
}

TEST(NameIndex, CandidatesWithinCoverEveryEntryWithinTau) {
  std::unique_ptr<OracleWorld> world = MakeOracleWorld(600, 5);
  ASSERT_NE(world, nullptr);
  const NameIndex& index = *world->index;
  for (const std::string& query : OracleQueries(index, 60, 29)) {
    const std::string normalized = NormalizeTerm(query);
    const std::vector<size_t> candidates =
        index.CandidatesWithin(normalized, 2);
    ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end());
    for (size_t e = 0; e < index.entries().size(); ++e) {
      if (!BoundedLevenshtein(normalized, index.entries()[e].surface, 2)) {
        continue;
      }
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), e))
          << "query='" << normalized << "' missed '"
          << index.entries()[e].surface << "'";
    }
  }
}

// More than 256 "<name> variant N" siblings tie on shared-trigram count
// with the closest surface, which has the highest entry index: a ranked
// top-256 cut (ties to the lower index) drops it, an exact filter must
// not. The query is one edit from "... variant 479" and two from every
// "... variant 4dd9".
TEST(EditMatcher, ClosestSiblingBeyondTopRankedTrigramCut) {
  ConceptDag dag;
  for (int n = 4000; n < 4300; ++n) {
    ASSERT_TRUE(
        dag.AddConcept(StrFormat("imaging of heart variant %d", n)).ok());
  }
  Result<ConceptId> target = dag.AddConcept("imaging of heart variant 479");
  ASSERT_TRUE(target.ok());
  NameIndex index(&dag);
  const std::string query = "imaging of heart variant 4x9";

  const std::vector<size_t> ranked = index.CandidatesByTrigram(query, 256);
  ASSERT_EQ(ranked.size(), 256u);
  EXPECT_EQ(std::find(ranked.begin(), ranked.end(), size_t{*target}),
            ranked.end());

  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  const std::optional<ConceptMatch> m = matcher.Map(query);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, *target);
  EXPECT_DOUBLE_EQ(m->score, 1.0 - 1.0 / 3.0);
}

// ---- Prefix-filter soundness on adversarial inputs ----------------------
//
// CandidatesWithin scans only the postings of the 3τ + 1 rarest query
// trigrams once the query has at least 3τ + 3 characters. These inputs
// sit on the edges of the pigeonhole argument: queries with exactly
// 3τ + 1 trigrams, runs of one repeated trigram, τ substitutions by 'q'
// (absent from the vocabulary) that leave 3τ empty postings to sort
// first, and long near-duplicate names whose common grams have long
// postings.

std::unique_ptr<OracleWorld> MakeAdversarialWorld() {
  auto world = std::make_unique<OracleWorld>();
  const auto add = [&world](const std::string& name) {
    EXPECT_TRUE(world->dag.AddConcept(name).ok()) << name;
  };
  for (const char* name :
       {"aaaaaaaaa", "aaaaaaaaaaaa", "aaaaaaaaaaaaaa", "aaaaaaaaaaaaaaa",
        "aaaaaaabaaaaaa", "aaaaaaaaaaaaab", "baaaaaaaaaaaaa", "aaaaaabaa",
        "abcabcabc", "abcabcabcabcab", "abcabcabcabcabc", "abcabcabcabca",
        "bcabcabcabcabc", "abcabdabcabcab", "cabcabcabcabca", "abcabcab",
        "abababababab", "ababababab"}) {
    add(name);
  }
  // Near-duplicates over a handful of stems and the common grams
  // " of", "of ", "the", "lun", so those postings run to hundreds.
  const char* stems[] = {"structure of left upper lobe of the lung",
                         "disorder of the lung and the pleura",
                         "fracture of the neck of the left femur",
                         "infection of the lower lobe of the lung"};
  Rng rng(41);
  for (const char* stem : stems) {
    for (int v = 0; v < 60; ++v) {
      std::string name = stem;
      // A one- or two-character variation somewhere in the stem, then a
      // numbered suffix: many entries within a few edits of each other.
      const size_t pos = rng.UniformU64(name.size());
      name[pos] = "abcdefghijklmnoprstuvwxyz"[rng.UniformU64(25)];
      add(StrFormat("%s %d", name.c_str(), v));
    }
  }
  world->index = std::make_unique<NameIndex>(&world->dag);
  return world;
}

std::vector<std::string> AdversarialQueries(const NameIndex& index,
                                            size_t tau, uint64_t seed) {
  Rng rng(seed);
  const size_t shortest = 3 * tau + 3;  // the shortest prefix-branch query
  std::vector<std::string> queries = {
      "aaaaaaaaaaaaaa", "abcabcabcabcab", "qqqqqqqqqqqqqq", "zqxzqxzqxzqxzq",
      std::string(shortest, 'a'), std::string(shortest + 1, 'a'),
      std::string("abcabcabcabcabcabc").substr(0, shortest),
      std::string("aaaaaaaaaaaaaaaaaa").substr(0, shortest - 1) + "b"};
  const std::vector<NameEntry>& entries = index.entries();
  for (size_t i = 0; i < 40; ++i) {
    const std::string& surface =
        entries[rng.UniformU64(entries.size())].surface;
    queries.push_back(surface);
    std::string edited = surface;
    for (size_t e = 0; e < tau; ++e) edited = RandomEdit(edited, rng);
    queries.push_back(edited);
    // τ substitutions by 'q', at least 3 apart: each replaces 3 trigram
    // occurrences with grams no entry contains.
    if (surface.size() >= 3 * tau + 3) {
      std::string absent = surface;
      const size_t start = rng.UniformU64(surface.size() - 3 * tau + 1);
      for (size_t e = 0; e < tau; ++e) absent[start + 3 * e] = 'q';
      queries.push_back(absent);
    }
    // Exactly 3τ + 3 characters, from anywhere in the surface, plus an
    // edited copy that may leave the prefix branch.
    if (surface.size() >= shortest) {
      const std::string window = surface.substr(
          rng.UniformU64(surface.size() - shortest + 1), shortest);
      queries.push_back(window);
      queries.push_back(RandomEdit(window, rng));
    }
  }
  return queries;
}

TEST(NameIndex, PrefixFilterCoversAdversarialQueries) {
  std::unique_ptr<OracleWorld> world = MakeAdversarialWorld();
  const NameIndex& index = *world->index;
  for (size_t tau : {size_t{1}, size_t{2}, size_t{3}}) {
    EditMatcherOptions options;
    options.max_distance = tau;
    const EditDistanceMatcher matcher(&index, options);
    size_t within = 0;
    for (const std::string& query : AdversarialQueries(index, tau, 61 + tau)) {
      const std::string normalized = NormalizeTerm(query);
      const std::vector<size_t> candidates =
          index.CandidatesWithin(normalized, tau);
      ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
      ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                  candidates.end());
      for (size_t e = 0; e < index.entries().size(); ++e) {
        if (!BoundedLevenshtein(normalized, index.entries()[e].surface,
                                tau)) {
          continue;
        }
        ++within;
        EXPECT_TRUE(
            std::binary_search(candidates.begin(), candidates.end(), e))
            << "tau=" << tau << " query='" << normalized << "' missed '"
            << index.entries()[e].surface << "'";
      }
      const std::optional<ConceptMatch> got = matcher.Map(query);
      const std::optional<ConceptMatch> want =
          BruteForceEdit(index, query, tau);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "tau=" << tau << " query='" << query << "'";
      if (!want.has_value()) continue;
      EXPECT_EQ(got->id, want->id)
          << "tau=" << tau << " query='" << query << "'";
      EXPECT_DOUBLE_EQ(got->score, want->score) << "query='" << query << "'";
    }
    // The inputs must actually have true matches to miss.
    EXPECT_GT(within, 100u) << "tau=" << tau;
  }
}

// Many threads map through one index while another thread alternates
// between a small and a large index, so its thread-local count array is
// resized mid-run and its epochs interleave across indexes. Every answer
// must equal the single-threaded one (run under the tsan preset too).
TEST(EditMatcher, ConcurrentMapsMatchSequentialAcrossIndexes) {
  std::unique_ptr<OracleWorld> big = MakeOracleWorld(800, 3);
  ASSERT_NE(big, nullptr);
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex small_index(&fx->dag);
  const EditDistanceMatcher big_matcher(big->index.get(),
                                        EditMatcherOptions{});
  const EditDistanceMatcher small_matcher(&small_index, EditMatcherOptions{});

  const std::vector<std::string> queries = OracleQueries(*big->index, 30, 7);
  const std::vector<std::string> small_queries = {
      "kidny disease", "nephropathy", "kidney diseas", "hypertension",
      "chronic kidney disease"};
  std::vector<std::optional<ConceptMatch>> want_big;
  std::vector<std::optional<ConceptMatch>> want_small;
  for (const std::string& q : queries) want_big.push_back(big_matcher.Map(q));
  for (const std::string& q : small_queries) {
    want_small.push_back(small_matcher.Map(q));
  }
  const auto same = [](const std::optional<ConceptMatch>& a,
                       const std::optional<ConceptMatch>& b) {
    return a.has_value() == b.has_value() &&
           (!a.has_value() || (a->id == b->id && a->score == b->score));
  };

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads + 1, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 2; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(t) * 7) % queries.size();
          if (!same(big_matcher.Map(queries[q]), want_big[q])) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      const size_t s = i % small_queries.size();
      if (!same(small_matcher.Map(small_queries[s]), want_small[s])) {
        ++mismatches[kThreads];
      }
      if (!same(big_matcher.Map(queries[i]), want_big[i])) {
        ++mismatches[kThreads];
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t <= kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

// Embedding matcher needs word vectors; train a small model on a corpus
// built from the fixture names so every word is in-vocabulary.
struct EmbeddingRig {
  Figure5Fixture fx;
  WordVectors vectors;
  std::unique_ptr<SifModel> sif;
  std::unique_ptr<NameIndex> index;
};

EmbeddingRig MakeEmbeddingRig() {
  EmbeddingRig rig;
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  rig.fx = std::move(*fx);
  Corpus corpus;
  for (int rep = 0; rep < 12; ++rep) {
    Document doc;
    doc.name = StrFormat("d%d", rep);
    DocumentSection s;
    s.context = kNoContext;
    for (ConceptId id = 0; id < rig.fx.dag.num_concepts(); ++id) {
      for (const std::string& tok : Tokenize(rig.fx.dag.name(id))) {
        s.tokens.push_back(tok);
      }
    }
    doc.sections.push_back(std::move(s));
    corpus.AddDocument(std::move(doc));
  }
  WordVectorOptions opts;
  opts.dimensions = 16;
  rig.vectors = WordVectors::Train(corpus, opts);

  std::vector<std::vector<std::string>> reference;
  for (ConceptId id = 0; id < rig.fx.dag.num_concepts(); ++id) {
    reference.push_back(Tokenize(rig.fx.dag.name(id)));
  }
  rig.sif = std::make_unique<SifModel>(&rig.vectors, reference, SifOptions{});
  rig.index = std::make_unique<NameIndex>(&rig.fx.dag);
  return rig;
}

TEST(EmbeddingMatcher, ExactHitShortCircuits) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(),
                           EmbeddingMatcherOptions{});
  EXPECT_EQ(matcher.name(), "EMBEDDING");
  auto m = matcher.Map("kidney disease");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, rig.fx.kidney_disease);
  EXPECT_DOUBLE_EQ(m->score, 1.0);
}

TEST(EmbeddingMatcher, PartialPhraseMapsToNearestConcept) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcherOptions opts;
  opts.min_similarity = 0.3;
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(), opts);
  // A word-order / token-subset variant of a fixture name: pure string
  // matchers miss it, the embedding sees shared tokens.
  auto m = matcher.Map("hypertension chronic kidney disease stage 1");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, rig.fx.ckd_stage1_due_to_hypertension);
}

TEST(EmbeddingMatcher, FullyOovTermAbstains) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(),
                           EmbeddingMatcherOptions{});
  EXPECT_FALSE(matcher.Map("zzz qqq www").has_value());
}

}  // namespace
}  // namespace medrelax
