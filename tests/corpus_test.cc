// Tests of the corpus model and the per-context mention statistics.

#include <gtest/gtest.h>

#include "medrelax/common/string_util.h"
#include "medrelax/corpus/corpus_stats.h"
#include "medrelax/corpus/document.h"

namespace medrelax {
namespace {

Corpus TwoSectionCorpus() {
  Corpus corpus;
  Document d1;
  d1.name = "monograph-1";
  DocumentSection ind;
  ind.context = 0;
  ind.tokens = {"treats", "headache", "and", "frequent", "headache",
                "patients"};
  DocumentSection risk;
  risk.context = 1;
  risk.tokens = {"may", "cause", "headache", "rarely"};
  d1.sections = {ind, risk};
  corpus.AddDocument(std::move(d1));

  Document d2;
  d2.name = "monograph-2";
  DocumentSection ind2;
  ind2.context = 0;
  ind2.tokens = {"treats", "pain", "in", "throat"};
  d2.sections = {ind2};
  corpus.AddDocument(std::move(d2));
  return corpus;
}

TEST(Corpus, TotalTokens) {
  Corpus corpus = TwoSectionCorpus();
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.TotalTokens(), 14u);
}

TEST(MentionStats, CountsPerContext) {
  Corpus corpus = TwoSectionCorpus();
  MentionStats stats({"headache", "pain in throat", "frequent headache"});
  stats.Process(corpus, 2);
  EXPECT_EQ(stats.num_documents(), 2u);
  // "headache" appears 2x in ctx 0 ("headache", inside "frequent headache")
  // and 1x in ctx 1.
  EXPECT_EQ(stats.MentionCount(0, 0), 2u);
  EXPECT_EQ(stats.MentionCount(0, 1), 1u);
  EXPECT_EQ(stats.TotalMentions(0), 3u);
  // Multi-word phrase match.
  EXPECT_EQ(stats.MentionCount(1, 0), 1u);
  EXPECT_EQ(stats.MentionCount(1, 1), 0u);
  // Nested phrase also counted.
  EXPECT_EQ(stats.MentionCount(2, 0), 1u);
}

TEST(MentionStats, DocumentFrequency) {
  Corpus corpus = TwoSectionCorpus();
  MentionStats stats({"headache", "pain in throat"});
  stats.Process(corpus, 2);
  EXPECT_EQ(stats.DocumentFrequency(0), 1u);  // headache only in doc 1
  EXPECT_EQ(stats.DocumentFrequency(1), 1u);
}

TEST(MentionStats, TfIdfPenalizesUbiquity) {
  // "common" in both docs, "rare" in one, same per-context counts.
  Corpus corpus;
  for (int d = 0; d < 2; ++d) {
    Document doc;
    doc.name = StrFormat("d%d", d);
    DocumentSection s;
    s.context = 0;
    s.tokens = {"common"};
    if (d == 0) s.tokens.push_back("rare");
    doc.sections.push_back(s);
    corpus.AddDocument(std::move(doc));
  }
  MentionStats stats({"common", "rare"});
  stats.Process(corpus, 1);
  // Per-mention weight: rare's idf > common's idf.
  double common_w = stats.TfIdfWeight(0, 0) /
                    static_cast<double>(stats.MentionCount(0, 0));
  double rare_w = stats.TfIdfWeight(1, 0) /
                  static_cast<double>(stats.MentionCount(1, 0));
  EXPECT_GT(rare_w, common_w);
}

TEST(MentionStats, UntypedSectionsCountTowardTotalsOnly) {
  Corpus corpus;
  Document doc;
  doc.name = "d";
  DocumentSection s;
  s.context = kNoContext;
  s.tokens = {"fever"};
  doc.sections.push_back(s);
  corpus.AddDocument(std::move(doc));
  MentionStats stats({"fever"});
  stats.Process(corpus, 2);
  EXPECT_EQ(stats.TotalMentions(0), 1u);
  EXPECT_EQ(stats.MentionCount(0, 0), 0u);
  EXPECT_EQ(stats.MentionCount(0, 1), 0u);
  EXPECT_EQ(stats.DocumentFrequency(0), 1u);
}

TEST(MentionStats, UnseenPhraseIsZeroEverywhere) {
  Corpus corpus = TwoSectionCorpus();
  MentionStats stats({"pneumonia"});
  stats.Process(corpus, 2);
  EXPECT_EQ(stats.TotalMentions(0), 0u);
  EXPECT_DOUBLE_EQ(stats.TfIdfWeight(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(stats.TfIdfWeightTotal(0), 0.0);
}

TEST(MentionStats, OutOfRangeAccessorsAreSafe) {
  Corpus corpus = TwoSectionCorpus();
  MentionStats stats({"headache"});
  stats.Process(corpus, 2);
  EXPECT_EQ(stats.MentionCount(99, 0), 0u);
  EXPECT_EQ(stats.MentionCount(0, 99), 0u);
  EXPECT_EQ(stats.TotalMentions(99), 0u);
}

}  // namespace
}  // namespace medrelax
