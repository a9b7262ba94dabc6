// Tests of the pure protocol-parsing layer (serve/protocol.h): the
// numeric options must be overflow-checked (the strtoul predecessor
// silently wrapped k=99999999999999999999 into a small request), option
// recognition must stop at the first term token, and the error texts
// must stay exactly what the golden transcripts pin after "err ". Context
// labels resolve against a registry, spaces in the label included.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "medrelax/serve/protocol.h"

namespace medrelax::serve {
namespace {

TEST(ParseVerbTest, RecognizesEveryDocumentedVerb) {
  EXPECT_EQ(ParseVerb("RELAX"), Verb::kRelax);
  EXPECT_EQ(ParseVerb("CONTEXTS"), Verb::kContexts);
  EXPECT_EQ(ParseVerb("GEN"), Verb::kGen);
  EXPECT_EQ(ParseVerb("RELOAD"), Verb::kReload);
  EXPECT_EQ(ParseVerb("STATS"), Verb::kStats);
  EXPECT_EQ(ParseVerb("QUIT"), Verb::kQuit);
}

TEST(ParseVerbTest, IsCaseSensitiveAndStrict) {
  EXPECT_EQ(ParseVerb("relax"), Verb::kUnknown);
  EXPECT_EQ(ParseVerb("Relax"), Verb::kUnknown);
  EXPECT_EQ(ParseVerb(""), Verb::kUnknown);
  EXPECT_EQ(ParseVerb("RELAXX"), Verb::kUnknown);
}

TEST(ParseProtocolCountTest, ParsesPlainDecimals) {
  Result<uint64_t> value = ParseProtocolCount("0", "k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0u);
  value = ParseProtocolCount("42", "k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42u);
  // The exact maximum fits; one more does not.
  value = ParseProtocolCount("18446744073709551615", "k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, ~uint64_t{0});
}

TEST(ParseProtocolCountTest, RejectsOverflowWithATypedError) {
  Result<uint64_t> value = ParseProtocolCount("18446744073709551616", "k");
  ASSERT_FALSE(value.ok());
  EXPECT_TRUE(value.status().IsInvalidArgument()) << value.status();
  EXPECT_EQ(value.status().message(),
            "k=18446744073709551616 does not fit in 64 bits");
  // The classic strtoul-wrapping probe from the golden transcript.
  value = ParseProtocolCount("99999999999999999999", "k");
  ASSERT_FALSE(value.ok());
  EXPECT_TRUE(value.status().IsInvalidArgument()) << value.status();
  EXPECT_EQ(value.status().message(),
            "k=99999999999999999999 does not fit in 64 bits");
}

TEST(ParseProtocolCountTest, RejectsEmptySignsAndJunk) {
  for (const char* bad : {"", "-1", "+1", " 1", "1x", "0x10", "1.5"}) {
    Result<uint64_t> value = ParseProtocolCount(bad, "k");
    ASSERT_FALSE(value.ok()) << "'" << bad << "' parsed";
    EXPECT_TRUE(value.status().IsInvalidArgument()) << value.status();
  }
}

TEST(ParseRelaxArgsTest, ParsesOptionsAndTerm) {
  Result<RelaxLine> line =
      ParseRelaxArgs(" k=3 timeout_ms=250 ctx=a|b|c disorder of kidney");
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->top_k, 3u);
  EXPECT_EQ(line->timeout_ms, 250u);
  EXPECT_TRUE(line->has_context);
  EXPECT_EQ(line->context_label, "a|b|c");
  EXPECT_EQ(line->term, "disorder of kidney");
}

TEST(ParseRelaxArgsTest, NormalizesTermWhitespace) {
  Result<RelaxLine> line = ParseRelaxArgs("  chronic \t kidney  disease ");
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->term, "chronic kidney disease");
  EXPECT_EQ(line->top_k, 0u);
  EXPECT_EQ(line->timeout_ms, 0u);
  EXPECT_FALSE(line->has_context);
}

TEST(ParseRelaxArgsTest, OptionsAfterTheFirstTermTokenAreLiteral) {
  // `k=` inside a term is part of the term — options only before it.
  Result<RelaxLine> line = ParseRelaxArgs("foo k=2 ctx=x");
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->top_k, 0u);
  EXPECT_FALSE(line->has_context);
  EXPECT_EQ(line->term, "foo k=2 ctx=x");
}

TEST(ParseRelaxArgsTest, RejectsMissingTerm) {
  Result<RelaxLine> line = ParseRelaxArgs("   ");
  ASSERT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status();
  EXPECT_EQ(line.status().message(), "RELAX needs a term");

  line = ParseRelaxArgs("k=5 ctx=a|b|c");
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().message(), "RELAX needs a term");
}

TEST(ParseRelaxArgsTest, RejectsExplicitKZero) {
  Result<RelaxLine> line = ParseRelaxArgs("k=0 renal failure");
  ASSERT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status();
  EXPECT_EQ(line.status().message(),
            "k must be positive (omit k= for the snapshot default)");
}

TEST(ParseRelaxArgsTest, RejectsOverflowingK) {
  Result<RelaxLine> line =
      ParseRelaxArgs("k=99999999999999999999 renal failure");
  ASSERT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status();
  EXPECT_EQ(line.status().message(),
            "k=99999999999999999999 does not fit in 64 bits");
}

TEST(ParseRelaxArgsTest, CapsTimeoutAtTwentyFourHours) {
  Result<RelaxLine> line =
      ParseRelaxArgs("timeout_ms=86400000 renal failure");
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->timeout_ms, kMaxTimeoutMs);

  line = ParseRelaxArgs("timeout_ms=86400001 renal failure");
  ASSERT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status();
  EXPECT_EQ(line.status().message(), "timeout_ms must be at most 86400000");
}

// Context labels may hold spaces ("Monitoring-uses-Lab Test"), which
// the one-token ctx= grammar cuts at the first space. Resolution must
// win the label back from the term's leading words.
class ResolveContextLabelTest : public ::testing::Test {
 protected:
  ResolveContextLabelTest() {
    finding_ = contexts_.Intern({"Indication", "hasFinding", "Finding"});
    lab_test_ = contexts_.Intern({"Monitoring", "uses", "Lab Test"});
    panel_ = contexts_.Intern({"Monitoring", "uses", "Lab Test Panel"});
  }

  /// Parses `args` (which must carry ctx=) and resolves its label.
  Result<ContextId> Resolve(const std::string& args, RelaxLine* line) {
    Result<RelaxLine> parsed = ParseRelaxArgs(args);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(parsed->has_context);
    *line = *parsed;
    return ResolveContextLabel(contexts_, line);
  }

  ContextRegistry contexts_;
  ContextId finding_ = kNoContext;
  ContextId lab_test_ = kNoContext;
  ContextId panel_ = kNoContext;
};

TEST_F(ResolveContextLabelTest, ListedTokenResolvesAsIs) {
  RelaxLine line;
  Result<ContextId> id =
      Resolve("ctx=Indication-hasFinding-Finding disorder of kidney", &line);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, finding_);
  EXPECT_EQ(line.context_label, "Indication-hasFinding-Finding");
  EXPECT_EQ(line.term, "disorder of kidney");
}

TEST_F(ResolveContextLabelTest, LabelWithASpaceTakesTheTermsLeadingWord) {
  RelaxLine line;
  Result<ContextId> id =
      Resolve("k=3 ctx=Monitoring-uses-Lab Test hba1c level", &line);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, lab_test_);
  EXPECT_EQ(line.context_label, "Monitoring-uses-Lab Test");
  EXPECT_EQ(line.term, "hba1c level");
  EXPECT_EQ(line.top_k, 3u);
}

TEST_F(ResolveContextLabelTest, LongestListedLabelWins) {
  RelaxLine line;
  Result<ContextId> id =
      Resolve("ctx=Monitoring-uses-Lab Test Panel glucose", &line);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, panel_);
  EXPECT_EQ(line.context_label, "Monitoring-uses-Lab Test Panel");
  EXPECT_EQ(line.term, "glucose");
}

TEST_F(ResolveContextLabelTest, LeavesAtLeastOneWordForTheTerm) {
  // "Panel" could complete the longer label, but it is the last word:
  // it stays the term and the shorter label is addressed.
  RelaxLine line;
  Result<ContextId> id = Resolve("ctx=Monitoring-uses-Lab Test Panel", &line);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, lab_test_);
  EXPECT_EQ(line.term, "Panel");

  id = Resolve("ctx=Monitoring-uses-Lab Test", &line);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().message(), "unknown context 'Monitoring-uses-Lab'");
}

TEST_F(ResolveContextLabelTest, LongTermKeepsEverythingPastTheLabel) {
  std::string words;
  for (int i = 0; i < 5000; ++i) words += " w";
  RelaxLine line;
  Result<ContextId> id = Resolve("ctx=Monitoring-uses-Lab Test" + words, &line);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, lab_test_);
  EXPECT_EQ(line.term, words.substr(1));
}

TEST_F(ResolveContextLabelTest, UnknownLabelKeepsTheGoldenErrorText) {
  RelaxLine line;
  Result<ContextId> id =
      Resolve("ctx=No-Such-Context disorder of kidney", &line);
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsInvalidArgument()) << id.status();
  EXPECT_EQ(id.status().message(), "unknown context 'No-Such-Context'");
  EXPECT_EQ(line.context_label, "No-Such-Context");
  EXPECT_EQ(line.term, "disorder of kidney");
}

}  // namespace
}  // namespace medrelax::serve
