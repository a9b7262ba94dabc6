// Round-trip tests of the text serialization for the external DAG and the
// knowledge base, including property sweeps over generated worlds.

#include <algorithm>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/io/dag_io.h"
#include "medrelax/io/corpus_io.h"
#include "medrelax/io/kb_io.h"

namespace medrelax {
namespace {

void ExpectDagsEqual(const ConceptDag& a, const ConceptDag& b) {
  ASSERT_EQ(a.num_concepts(), b.num_concepts());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    EXPECT_EQ(a.name(id), b.name(id));
    const StringTableView sa = a.synonyms(id);
    const StringTableView sb = b.synonyms(id);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
    const std::span<const ConceptId> pa = a.parents(id);
    const std::span<const ConceptId> pb = b.parents(id);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
  }
}

TEST(DagIo, RoundTripsFixture) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  std::stringstream buffer;
  ASSERT_TRUE(SaveDag(fx->dag, buffer).ok());
  auto loaded = LoadDag(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDagsEqual(fx->dag, *loaded);
}

// The edge columns of the shortcut-storing format stay, but only a native
// edge (distance 1, shortcut 0) loads.
TEST(DagIo, RejectsShortcutEdgeLines) {
  const std::string concepts = "# medrelax-dag v1\nC\troot\nC\tleaf\n";
  std::stringstream native(concepts + "E\t1\t0\t1\t0\n");
  Result<ConceptDag> loaded = LoadDag(native);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_edges(), 1u);
  for (const char* edge : {"E\t1\t0\t3\t1\n", "E\t1\t0\t1\t1\n",
                           "E\t1\t0\t2\t0\n", "E\t1\t0\t0\t0\n"}) {
    std::stringstream in(concepts + edge);
    EXPECT_TRUE(LoadDag(in).status().IsInvalidArgument()) << edge;
  }
}

TEST(DagIo, RejectsGarbage) {
  std::stringstream missing_header("C\tfoo\n");
  EXPECT_TRUE(LoadDag(missing_header).status().IsInvalidArgument());
  std::stringstream bad_record("# medrelax-dag v1\nX\tfoo\n");
  EXPECT_TRUE(LoadDag(bad_record).status().IsInvalidArgument());
  std::stringstream bad_id("# medrelax-dag v1\nC\tfoo\nS\t9\tbar\n");
  EXPECT_TRUE(LoadDag(bad_id).status().IsInvalidArgument());
}

TEST(DagIo, FileRoundTrip) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  const std::string path = ::testing::TempDir() + "/dag_io_test.tsv";
  ASSERT_TRUE(SaveDagToFile(fx->dag, path).ok());
  auto loaded = LoadDagFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDagsEqual(fx->dag, *loaded);
  EXPECT_TRUE(LoadDagFromFile("/no/such/file").status().IsNotFound());
}

void ExpectKbsEqual(const KnowledgeBase& a, const KnowledgeBase& b) {
  ASSERT_EQ(a.ontology.num_concepts(), b.ontology.num_concepts());
  ASSERT_EQ(a.ontology.num_relationships(), b.ontology.num_relationships());
  for (OntologyConceptId c = 0; c < a.ontology.num_concepts(); ++c) {
    EXPECT_EQ(a.ontology.concept_name(c), b.ontology.concept_name(c));
    EXPECT_EQ(a.ontology.SubConcepts(c), b.ontology.SubConcepts(c));
  }
  for (RelationshipId r = 0; r < a.ontology.num_relationships(); ++r) {
    EXPECT_EQ(a.ontology.relationship(r).name,
              b.ontology.relationship(r).name);
    EXPECT_EQ(a.ontology.relationship(r).domain,
              b.ontology.relationship(r).domain);
    EXPECT_EQ(a.ontology.relationship(r).range,
              b.ontology.relationship(r).range);
  }
  ASSERT_EQ(a.instances.num_instances(), b.instances.num_instances());
  for (InstanceId i = 0; i < a.instances.num_instances(); ++i) {
    EXPECT_EQ(a.instances.instance(i).name, b.instances.instance(i).name);
    EXPECT_EQ(a.instances.instance(i).concept_id,
              b.instances.instance(i).concept_id);
  }
  ASSERT_EQ(a.triples.num_triples(), b.triples.num_triples());
  for (size_t t = 0; t < a.triples.num_triples(); ++t) {
    EXPECT_TRUE(a.triples.triples()[t] == b.triples.triples()[t]);
  }
}

TEST(KbIo, RoundTripsMedOntologyKb) {
  auto onto = BuildMedOntology();
  ASSERT_TRUE(onto.ok());
  KnowledgeBase kb;
  kb.ontology = std::move(*onto);
  OntologyConceptId drug = kb.ontology.FindConcept("Drug");
  OntologyConceptId finding = kb.ontology.FindConcept("Finding");
  InstanceId a = *kb.instances.AddInstance("aspirin", drug);
  InstanceId f = *kb.instances.AddInstance("fever", finding);
  ASSERT_TRUE(kb.triples.AddTriple(a, 0, f).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveKb(kb, buffer).ok());
  auto loaded = LoadKb(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectKbsEqual(kb, *loaded);
}

TEST(KbIo, RejectsGarbage) {
  std::stringstream missing_header("OC\tDrug\n");
  EXPECT_TRUE(LoadKb(missing_header).status().IsInvalidArgument());
  std::stringstream bad_triple(
      "# medrelax-kb v1\nOC\tDrug\nT\t0\t0\t0\n");  // no instances yet
  EXPECT_TRUE(LoadKb(bad_triple).status().IsInvalidArgument());
}

void ExpectCorporaEqual(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a.document(d).name, b.document(d).name);
    ASSERT_EQ(a.document(d).sections.size(), b.document(d).sections.size());
    for (size_t s = 0; s < a.document(d).sections.size(); ++s) {
      EXPECT_EQ(a.document(d).sections[s].context,
                b.document(d).sections[s].context);
      EXPECT_EQ(a.document(d).sections[s].tokens,
                b.document(d).sections[s].tokens);
    }
  }
}

TEST(CorpusIo, RoundTripsTypedAndUntypedSections) {
  Corpus corpus;
  Document doc;
  doc.name = "monograph-1";
  DocumentSection typed;
  typed.context = 2;
  typed.tokens = {"treats", "headache"};
  DocumentSection untyped;
  untyped.context = kNoContext;
  untyped.tokens = {"general", "prose"};
  doc.sections = {typed, untyped};
  corpus.AddDocument(std::move(doc));

  std::stringstream buffer;
  ASSERT_TRUE(SaveCorpus(corpus, buffer).ok());
  auto loaded = LoadCorpus(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectCorporaEqual(corpus, *loaded);
}

TEST(CorpusIo, RejectsGarbage) {
  std::stringstream missing_header("D\tdoc\n");
  EXPECT_TRUE(LoadCorpus(missing_header).status().IsInvalidArgument());
  std::stringstream orphan_section(
      "# medrelax-corpus v1\nS\t-\ttokens here\n");
  EXPECT_TRUE(LoadCorpus(orphan_section).status().IsInvalidArgument());
  std::stringstream bad_context("# medrelax-corpus v1\nD\td\nS\tx\tfoo\n");
  EXPECT_TRUE(LoadCorpus(bad_context).status().IsInvalidArgument());
}

TEST(CorpusIo, GeneratedMonographCorpusRoundTrips) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 300;
  eks.seed = 9;
  KbGeneratorOptions kbo;
  kbo.num_drugs = 8;
  kbo.num_findings = 30;
  kbo.seed = 10;
  auto world = GenerateWorld(eks, kbo);
  ASSERT_TRUE(world.ok());
  Corpus corpus = GenerateMonographCorpus(*world, CorpusGeneratorOptions{});
  std::stringstream buffer;
  ASSERT_TRUE(SaveCorpus(corpus, buffer).ok());
  auto loaded = LoadCorpus(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectCorporaEqual(corpus, *loaded);
}

// Property sweep: generated worlds round-trip losslessly at several seeds.
class IoSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IoSweep, GeneratedWorldRoundTrips) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 300;
  eks.seed = GetParam();
  KbGeneratorOptions kbo;
  kbo.num_drugs = 10;
  kbo.num_findings = 40;
  kbo.seed = GetParam() + 1;
  auto world = GenerateWorld(eks, kbo);
  ASSERT_TRUE(world.ok());

  std::stringstream dag_buffer;
  ASSERT_TRUE(SaveDag(world->eks.dag, dag_buffer).ok());
  auto dag = LoadDag(dag_buffer);
  ASSERT_TRUE(dag.ok()) << dag.status();
  ExpectDagsEqual(world->eks.dag, *dag);

  std::stringstream kb_buffer;
  ASSERT_TRUE(SaveKb(world->kb, kb_buffer).ok());
  auto kb = LoadKb(kb_buffer);
  ASSERT_TRUE(kb.ok()) << kb.status();
  ExpectKbsEqual(world->kb, *kb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoSweep, ::testing::Values(1, 5, 77, 2026));

}  // namespace
}  // namespace medrelax
