// Tests of the frequency model (Equations 1-2), the IC similarity
// (Equation 3) and the direction-weighted path penalty (Equations 4-5),
// pinned against the concrete numbers the paper prints in Figures 4 and 6.

#include <cmath>

#include <gtest/gtest.h>

#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/graph/paths.h"
#include "medrelax/relax/frequency_model.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"
#include "medrelax/relax/similarity.h"

namespace medrelax {
namespace {

// Builds the Figure 4 frequency tables: context 0 = Indication, 1 = Risk.
Result<FrequencyModel> Figure4Frequencies(const Figure4Fixture& fx,
                                          double smoothing = 0.0) {
  std::vector<std::vector<double>> direct(
      2, std::vector<double>(fx.dag.num_concepts(), 0.0));
  for (const auto& [id, count] : fx.indication_direct_counts) {
    direct[0][id] = count;
  }
  for (const auto& [id, count] : fx.risk_direct_counts) {
    direct[1][id] = count;
  }
  return PropagateFrequencies(fx.dag, direct, fx.root, smoothing);
}

TEST(Figure4, PropagatedFrequenciesMatchThePaper) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto freq = Figure4Frequencies(*fx);
  ASSERT_TRUE(freq.ok()) << freq.status();

  // Example 1: craniofacial pain = its own 0 + headache's 18878.
  EXPECT_DOUBLE_EQ(freq->Raw(fx->craniofacial_pain, 0), 18878.0);
  // pain of head and neck region = 18878 + 283 + 3 = 19164.
  EXPECT_DOUBLE_EQ(freq->Raw(fx->pain_of_head_and_neck_region, 0), 19164.0);
  // Risk context total as printed: 1656.
  EXPECT_DOUBLE_EQ(freq->Raw(fx->pain_of_head_and_neck_region, 1), 1656.0);
}

TEST(Figure4, RootNormalizesToOneAndIcZero) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, /*smoothing=*/1.0);
  ASSERT_TRUE(freq.ok());
  EXPECT_DOUBLE_EQ(freq->Frequency(fx->root, 0), 1.0);
  EXPECT_DOUBLE_EQ(freq->Ic(fx->root, 0), 0.0);
  // Deeper concepts have strictly lower frequency and higher IC.
  EXPECT_LT(freq->Frequency(fx->headache, 0), freq->Frequency(fx->root, 0));
  // headache and craniofacial pain carry the same propagated mass (18878),
  // so their ICs tie; pain-of-head-and-neck-region (19164) is strictly
  // more frequent, hence strictly less informative.
  EXPECT_DOUBLE_EQ(freq->Ic(fx->headache, 0),
                   freq->Ic(fx->craniofacial_pain, 0));
  EXPECT_GT(freq->Ic(fx->headache, 0),
            freq->Ic(fx->pain_of_head_and_neck_region, 0));
}

TEST(Figure4, AggregatedFrequencySumsContexts) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx);
  ASSERT_TRUE(freq.ok());
  // Aggregate raw of pohnr = 19164 + 1656, normalized by the root's total.
  double ind = freq->Raw(fx->pain_of_head_and_neck_region, 0);
  double risk = freq->Raw(fx->pain_of_head_and_neck_region, 1);
  double root_total = freq->Raw(fx->root, 0) + freq->Raw(fx->root, 1);
  EXPECT_NEAR(freq->Frequency(fx->pain_of_head_and_neck_region, kNoContext),
              (ind + risk) / root_total, 1e-9);
}

TEST(Figure4, ContextChangesIc) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  // headache has different frequency mass in the two contexts, so its IC
  // differs by context — the signal QR-no-context throws away.
  EXPECT_NE(freq->Ic(fx->headache, 0), freq->Ic(fx->headache, 1));
}

TEST(SimIc, IdenticalConceptsAreMaximallySimilar) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  EXPECT_DOUBLE_EQ(model.SimIc(fx->headache, fx->headache, 0), 1.0);
}

TEST(SimIc, SiblingSimilarityUsesLcs) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  // sim_IC(craniofacial pain, pain in throat) = 2 IC(pohnr) / (IC(a)+IC(b)).
  double expected =
      2.0 * freq->Ic(fx->pain_of_head_and_neck_region, 0) /
      (freq->Ic(fx->craniofacial_pain, 0) + freq->Ic(fx->pain_in_throat, 0));
  EXPECT_NEAR(model.SimIc(fx->craniofacial_pain, fx->pain_in_throat, 0),
              expected, 1e-12);
}

TEST(SimIc, AncestorPairUsesAncestorAsLcs) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  double expected = 2.0 * freq->Ic(fx->craniofacial_pain, 0) /
                    (freq->Ic(fx->headache, 0) +
                     freq->Ic(fx->craniofacial_pain, 0));
  EXPECT_NEAR(model.SimIc(fx->headache, fx->craniofacial_pain, 0), expected,
              1e-12);
}

TEST(SimIc, MoreSpecificLcsMeansMoreSimilar) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  // headache vs frequent headache share LCS headache (specific);
  // headache vs pain in throat share LCS pohnr (general).
  EXPECT_GT(model.SimIc(fx->frequent_headache, fx->headache, 0),
            model.SimIc(fx->headache, fx->pain_in_throat, 0));
}

// --- Equation 4 / Figure 6. ---

TEST(Figure6, FourHopsBetweenPneumoniaAndLrti) {
  auto fx = BuildFigure6Fixture();
  ASSERT_TRUE(fx.ok());
  TaxonomicPath forward = ShortestTaxonomicPath(
      fx->dag, fx->pneumonia, fx->lower_respiratory_tract_infection);
  ASSERT_TRUE(forward.found);
  ASSERT_EQ(forward.length(), 4u);
  // First 3 hops generalize, the last specializes (Example 4).
  EXPECT_EQ(forward.hops[0], HopDirection::kGeneralization);
  EXPECT_EQ(forward.hops[1], HopDirection::kGeneralization);
  EXPECT_EQ(forward.hops[2], HopDirection::kGeneralization);
  EXPECT_EQ(forward.hops[3], HopDirection::kSpecialization);
}

TEST(Figure6, PathPenaltyIsDirectionAsymmetric) {
  auto fx = BuildFigure6Fixture();
  ASSERT_TRUE(fx.ok());
  std::vector<std::vector<double>> direct(
      1, std::vector<double>(fx->dag.num_concepts(), 1.0));
  auto freq = PropagateFrequencies(fx->dag, direct, fx->root, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityOptions opts;  // w_gen = 0.9, w_spec = 1.0 (the paper's values)
  SimilarityModel model(&fx->dag, &*freq, opts);

  // Forward (query = pneumonia): gen,gen,gen,spec with exponents 3,2,1,0:
  // p = 0.9^(3+2+1) = 0.9^6.
  double forward =
      model.PathPenalty(fx->pneumonia, fx->lower_respiratory_tract_infection);
  EXPECT_NEAR(forward, std::pow(0.9, 6), 1e-12);

  // Reverse (query = LRTI): one generalization with exponent 3 then three
  // specializations at weight 1: p = 0.9^3.
  double reverse =
      model.PathPenalty(fx->lower_respiratory_tract_infection, fx->pneumonia);
  EXPECT_NEAR(reverse, std::pow(0.9, 3), 1e-12);

  // The early-generalization-heavy direction is penalized more.
  EXPECT_LT(forward, reverse);
}

TEST(PathPenalty, ExponentDecreasesAlongThePath) {
  SimilarityOptions opts;
  opts.generalization_weight = 0.5;
  ConceptDag dag;
  FrequencyModel dummy(1, 1);
  SimilarityModel model(&dag, &dummy, opts);
  // One generalization in a 3-hop path: position matters.
  std::vector<HopDirection> early = {HopDirection::kGeneralization,
                                     HopDirection::kSpecialization,
                                     HopDirection::kSpecialization};
  std::vector<HopDirection> late = {HopDirection::kSpecialization,
                                    HopDirection::kSpecialization,
                                    HopDirection::kGeneralization};
  EXPECT_NEAR(model.PathPenaltyForHops(early), std::pow(0.5, 2), 1e-12);
  EXPECT_NEAR(model.PathPenaltyForHops(late), 1.0, 1e-12);  // exponent 0
  EXPECT_LT(model.PathPenaltyForHops(early), model.PathPenaltyForHops(late));
}

TEST(PathPenalty, DisabledYieldsPlainIc) {
  auto fx = BuildFigure6Fixture();
  ASSERT_TRUE(fx.ok());
  std::vector<std::vector<double>> direct(
      1, std::vector<double>(fx->dag.num_concepts(), 1.0));
  auto freq = PropagateFrequencies(fx->dag, direct, fx->root, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityOptions opts;
  opts.use_path_penalty = false;
  SimilarityModel model(&fx->dag, &*freq, opts);
  EXPECT_DOUBLE_EQ(
      model.PathPenalty(fx->pneumonia, fx->lower_respiratory_tract_infection),
      1.0);
  EXPECT_DOUBLE_EQ(
      model.Similarity(fx->pneumonia, fx->lower_respiratory_tract_infection,
                       0),
      model.SimIc(fx->pneumonia, fx->lower_respiratory_tract_infection, 0));
}

TEST(Similarity, Equation5IsProductOfPenaltyAndSimIc) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  double sim = model.Similarity(fx->headache, fx->pain_in_throat, 0);
  double expected = model.PathPenalty(fx->headache, fx->pain_in_throat) *
                    model.SimIc(fx->headache, fx->pain_in_throat, 0);
  EXPECT_DOUBLE_EQ(sim, expected);
}

TEST(Similarity, NoContextOptionAggregates) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityOptions no_ctx;
  no_ctx.use_context = false;
  SimilarityModel model(&fx->dag, &*freq, no_ctx);
  // With context disabled, both context ids give the aggregated score.
  EXPECT_DOUBLE_EQ(model.Similarity(fx->headache, fx->pain_in_throat, 0),
                   model.Similarity(fx->headache, fx->pain_in_throat, 1));
}

// Property sweep: penalties are in (0, 1] for any weights in (0, 1] and
// weaken monotonically as the generalization weight drops.
class PenaltyWeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(PenaltyWeightSweep, PenaltyBoundedAndMonotone) {
  double w = GetParam();
  ConceptDag dag;
  FrequencyModel dummy(1, 1);
  SimilarityOptions opts;
  opts.generalization_weight = w;
  SimilarityModel model(&dag, &dummy, opts);
  std::vector<HopDirection> hops = {
      HopDirection::kGeneralization, HopDirection::kGeneralization,
      HopDirection::kSpecialization, HopDirection::kGeneralization};
  double p = model.PathPenaltyForHops(hops);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);

  SimilarityOptions lower;
  lower.generalization_weight = w * 0.9;
  SimilarityModel weaker(&dag, &dummy, lower);
  EXPECT_LE(weaker.PathPenaltyForHops(hops), p);
}

INSTANTIATE_TEST_SUITE_P(Weights, PenaltyWeightSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 1.0));

// Invariant sweep: for any pair in a rooted DAG, sim_IC is symmetric and
// in [0, 1]; the full similarity is bounded and direction-aware.
TEST(SimilarityInvariants, HoldOnFigure4World) {
  auto fx = BuildFigure4Fixture();
  ASSERT_TRUE(fx.ok());
  auto freq = Figure4Frequencies(*fx, 1.0);
  ASSERT_TRUE(freq.ok());
  SimilarityModel model(&fx->dag, &*freq, SimilarityOptions{});
  for (ConceptId a = 0; a < fx->dag.num_concepts(); ++a) {
    for (ConceptId b = 0; b < fx->dag.num_concepts(); ++b) {
      for (ContextId ctx : {ContextId{0}, ContextId{1}, kNoContext}) {
        double sim_ic = model.SimIc(a, b, ctx);
        EXPECT_GE(sim_ic, 0.0);
        EXPECT_LE(sim_ic, 1.0 + 1e-9);
        EXPECT_DOUBLE_EQ(sim_ic, model.SimIc(b, a, ctx)) << a << "," << b;
        double sim = model.Similarity(a, b, ctx);
        EXPECT_GE(sim, 0.0);
        EXPECT_LE(sim, 1.0 + 1e-9);
        // Equation 5 never exceeds Equation 3 (the penalty only damps).
        EXPECT_LE(sim, sim_ic + 1e-12);
      }
    }
  }
}

// The introduction's motivating case: "what drugs treat pertussis" has no
// direct KB entry; a *generalized* in-KB finding ("bronchitis") several
// hops away must still be found and ranked usefully.
TEST(IntroExample, PertussisRelaxesToBronchitis) {
  // respiratory fragment: pertussis is 3 generalization hops below
  // "bronchitis"-adjacent territory.
  ConceptDagBuilder builder;
  ConceptId root = *builder.AddConcept("snomed ct concept");
  ConceptId finding = *builder.AddConcept("clinical finding");
  ConceptId resp = *builder.AddConcept("disorder of respiratory system");
  ConceptId infection = *builder.AddConcept("respiratory tract infection");
  ConceptId lower = *builder.AddConcept("lower respiratory tract infection");
  ConceptId bronchitis = *builder.AddConcept("bronchitis");
  ConceptId bacterial = *builder.AddConcept("bacterial respiratory infection");
  ConceptId pertussis = *builder.AddConcept("pertussis");
  ASSERT_TRUE(builder.AddSynonym(pertussis, "whooping cough").ok());
  ASSERT_TRUE(builder.AddSubsumption(finding, root).ok());
  ASSERT_TRUE(builder.AddSubsumption(resp, finding).ok());
  ASSERT_TRUE(builder.AddSubsumption(infection, resp).ok());
  ASSERT_TRUE(builder.AddSubsumption(lower, infection).ok());
  ASSERT_TRUE(builder.AddSubsumption(bronchitis, lower).ok());
  ASSERT_TRUE(builder.AddSubsumption(bacterial, infection).ok());
  ASSERT_TRUE(builder.AddSubsumption(pertussis, bacterial).ok());

  // Only "bronchitis" has drug information in the KB.
  auto onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  KnowledgeBase kb;
  kb.ontology = std::move(*onto);
  OntologyConceptId finding_c = kb.ontology.FindConcept("Finding");
  InstanceId bronchitis_i =
      *kb.instances.AddInstance("bronchitis", finding_c);

  ConceptDag dag = std::move(builder).Build();
  NameIndex index(&dag);
  ExactMatcher matcher(&index);
  auto ingestion =
      RunIngestion(kb, dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(ingestion.ok());
  RelaxationOptions ropts;
  // Radius counts original hops (shortcuts keep their annotated
  // distance); dynamic growth widens r=2 until k instances are covered.
  ropts.radius = 2;
  QueryRelaxer relaxer(&dag, &*ingestion, &matcher, SimilarityOptions{},
                       ropts);
  auto outcome = relaxer.Relax("pertussis", 0);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->instances.empty());
  EXPECT_EQ(outcome->instances[0], bronchitis_i);
  // The colloquial synonym resolves too.
  auto colloquial = relaxer.Relax("whooping cough", 0);
  ASSERT_TRUE(colloquial.ok());
  EXPECT_EQ(colloquial->query_concept, pertussis);
}

}  // namespace
}  // namespace medrelax
