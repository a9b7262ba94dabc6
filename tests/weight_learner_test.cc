// Tests of the logistic-regression direction-weight learner (Section 5.2's
// "simple statistical regression analysis").

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/relax/weight_learner.h"

namespace medrelax {
namespace {

// A chain with a sibling fan so examples can mix generalization-heavy and
// specialization-heavy paths: root over mid, mid over {left, right},
// left over {l1, l2}, right over {r1}.
struct Fan {
  ConceptDag dag;
  ConceptId root, mid, left, right, l1, l2, r1;
};

Fan MakeFan() {
  Fan f;
  ConceptDagBuilder f_dag;
  f.root = *f_dag.AddConcept("root");
  f.mid = *f_dag.AddConcept("mid");
  f.left = *f_dag.AddConcept("left");
  f.right = *f_dag.AddConcept("right");
  f.l1 = *f_dag.AddConcept("l1");
  f.l2 = *f_dag.AddConcept("l2");
  f.r1 = *f_dag.AddConcept("r1");
  EXPECT_TRUE(f_dag.AddSubsumption(f.mid, f.root).ok());
  EXPECT_TRUE(f_dag.AddSubsumption(f.left, f.mid).ok());
  EXPECT_TRUE(f_dag.AddSubsumption(f.right, f.mid).ok());
  EXPECT_TRUE(f_dag.AddSubsumption(f.l1, f.left).ok());
  EXPECT_TRUE(f_dag.AddSubsumption(f.l2, f.left).ok());
  EXPECT_TRUE(f_dag.AddSubsumption(f.r1, f.right).ok());
  f.dag = std::move(f_dag).Build();
  return f;
}

TEST(WeightLearner, EmptyExamplesReturnDefaults) {
  Fan f = MakeFan();
  LearnedWeights w =
      LearnDirectionWeights(f.dag, {}, WeightLearnerOptions{});
  EXPECT_EQ(w.num_examples, 0u);
  EXPECT_DOUBLE_EQ(w.generalization_weight, 0.9);
  EXPECT_DOUBLE_EQ(w.specialization_weight, 1.0);
}

TEST(WeightLearner, PenalizesGeneralizationWhenFarPairsAreIrrelevant) {
  Fan f = MakeFan();
  // Relevant: near pairs (sibling, parent). Irrelevant: pairs whose paths
  // carry heavy early generalization (l1 -> r1 crosses the fan; l1 -> root
  // is a long climb). The learner should push w_gen below w_spec.
  std::vector<WeightExample> examples = {
      {f.l1, f.l2, true},    {f.l1, f.left, true},  {f.l2, f.left, true},
      {f.r1, f.right, true}, {f.left, f.right, true},
      {f.l1, f.r1, false},   {f.l2, f.r1, false},   {f.l1, f.root, false},
      {f.l2, f.root, false}, {f.r1, f.root, false}, {f.l1, f.mid, false},
  };
  WeightLearnerOptions opts;
  opts.epochs = 2000;
  opts.learning_rate = 0.3;
  LearnedWeights w = LearnDirectionWeights(f.dag, examples, opts);
  EXPECT_EQ(w.num_examples, examples.size());
  EXPECT_LT(w.generalization_weight, 1.0);
  EXPECT_GT(w.train_accuracy, 0.7);
}

TEST(WeightLearner, WeightsStayInValidRange) {
  Fan f = MakeFan();
  Rng rng(5);
  std::vector<WeightExample> examples;
  std::vector<ConceptId> all = {f.root, f.mid,  f.left, f.right,
                                f.l1,   f.l2,  f.r1};
  for (int i = 0; i < 60; ++i) {
    WeightExample ex;
    ex.query = all[rng.UniformU64(all.size())];
    ex.candidate = all[rng.UniformU64(all.size())];
    ex.relevant = rng.Bernoulli(0.5);
    examples.push_back(ex);
  }
  LearnedWeights w =
      LearnDirectionWeights(f.dag, examples, WeightLearnerOptions{});
  EXPECT_GT(w.generalization_weight, 0.0);
  EXPECT_LE(w.generalization_weight, 1.0);
  EXPECT_GT(w.specialization_weight, 0.0);
  EXPECT_LE(w.specialization_weight, 1.0);
}

TEST(WeightLearner, SamePairExamplesAreDeterministic) {
  Fan f = MakeFan();
  std::vector<WeightExample> examples = {
      {f.l1, f.l2, true}, {f.l1, f.r1, false}, {f.l1, f.root, false}};
  LearnedWeights a =
      LearnDirectionWeights(f.dag, examples, WeightLearnerOptions{});
  LearnedWeights b =
      LearnDirectionWeights(f.dag, examples, WeightLearnerOptions{});
  EXPECT_DOUBLE_EQ(a.generalization_weight, b.generalization_weight);
  EXPECT_DOUBLE_EQ(a.specialization_weight, b.specialization_weight);
}

}  // namespace
}  // namespace medrelax
