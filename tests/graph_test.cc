// Tests of the external-knowledge-source substrate: DAG construction,
// topological sort, traversal, LCS (with the footnote-1 tie policy), and
// taxonomic paths.

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "medrelax/datasets/snomed_generator.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/flagged_core.h"
#include "medrelax/graph/lcs.h"
#include "medrelax/graph/paths.h"
#include "medrelax/graph/topology.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {
namespace {

// Small diamond: root on top of {a, b}, both subsuming ab, which
// subsumes leaf — the minimal polyhierarchy shape.
struct Diamond {
  ConceptDag dag;
  ConceptId root, a, b, ab, leaf;
};

Diamond MakeDiamond() {
  Diamond d;
  ConceptDagBuilder d_dag;
  d.root = *d_dag.AddConcept("root");
  d.a = *d_dag.AddConcept("a");
  d.b = *d_dag.AddConcept("b");
  d.ab = *d_dag.AddConcept("ab");
  d.leaf = *d_dag.AddConcept("leaf");
  EXPECT_TRUE(d_dag.AddSubsumption(d.a, d.root).ok());
  EXPECT_TRUE(d_dag.AddSubsumption(d.b, d.root).ok());
  EXPECT_TRUE(d_dag.AddSubsumption(d.ab, d.a).ok());
  EXPECT_TRUE(d_dag.AddSubsumption(d.ab, d.b).ok());
  EXPECT_TRUE(d_dag.AddSubsumption(d.leaf, d.ab).ok());
  d.dag = std::move(d_dag).Build();
  return d;
}

TEST(ConceptDag, RejectsDuplicateNames) {
  ConceptDagBuilder builder;
  ASSERT_TRUE(builder.AddConcept("x").ok());
  EXPECT_TRUE(builder.AddConcept("x").status().IsAlreadyExists());
}

TEST(ConceptDag, RejectsSelfEdge) {
  ConceptDagBuilder builder;
  ConceptId x = *builder.AddConcept("x");
  EXPECT_TRUE(builder.AddSubsumption(x, x).IsInvalidArgument());
}

TEST(ConceptDag, RejectsDuplicateNativeEdge) {
  Diamond d = MakeDiamond();
  ConceptDagBuilder builder(d.dag);
  EXPECT_TRUE(builder.AddSubsumption(d.a, d.root).IsAlreadyExists());
}

TEST(ConceptDag, RejectsInvalidIds) {
  ConceptDagBuilder builder;
  ConceptId x = *builder.AddConcept("x");
  EXPECT_TRUE(builder.AddSubsumption(x, 999).IsInvalidArgument());
  EXPECT_TRUE(builder.AddSynonym(999, "y").IsInvalidArgument());
}

TEST(ConceptDag, ShortcutRequiresDistanceAtLeastTwo) {
  Diamond d = MakeDiamond();
  // Flagged leaf: one edge to each non-adjacent ancestor, in ancestor id
  // order, carrying the native distance; the adjacent ab gets none.
  std::vector<bool> flagged(d.dag.num_concepts(), false);
  flagged[d.leaf] = true;
  const std::vector<ShortcutEdge> want = {
      {d.leaf, d.root, 3}, {d.leaf, d.a, 2}, {d.leaf, d.b, 2}};
  EXPECT_EQ(ShortcutEdges(d.dag, flagged), want);
  // Everything flagged: every pair at most once, none shorter than two
  // hops, and the DAG itself keeps its native edges only.
  flagged.assign(d.dag.num_concepts(), true);
  const std::vector<ShortcutEdge> all = ShortcutEdges(d.dag, flagged);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_GE(all[i].distance, 2u);
    EXPECT_EQ(all[i].distance,
              UpDistance(d.dag, all[i].child, all[i].ancestor));
    for (size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(all[j].child == all[i].child &&
                   all[j].ancestor == all[i].ancestor);
    }
  }
  // leaf -> {root, a, b} and ab -> root.
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(d.dag.num_edges(), 5u);
}

TEST(ConceptDag, FindByNameAndRoots) {
  Diamond d = MakeDiamond();
  EXPECT_EQ(d.dag.FindByName("ab"), d.ab);
  EXPECT_EQ(d.dag.FindByName("nope"), kInvalidConcept);
  std::vector<ConceptId> roots = d.dag.Roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], d.root);
}

TEST(Topology, ChildrenBeforeParents) {
  Diamond d = MakeDiamond();
  auto order = TopologicalSortChildrenFirst(d.dag);
  ASSERT_TRUE(order.ok());
  std::vector<size_t> position(d.dag.num_concepts());
  for (size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  EXPECT_LT(position[d.leaf], position[d.ab]);
  EXPECT_LT(position[d.ab], position[d.a]);
  EXPECT_LT(position[d.ab], position[d.b]);
  EXPECT_LT(position[d.a], position[d.root]);
}

TEST(Topology, DetectsCycle) {
  ConceptDagBuilder builder;
  ConceptId x = *builder.AddConcept("x");
  ConceptId y = *builder.AddConcept("y");
  ASSERT_TRUE(builder.AddSubsumption(x, y).ok());
  ASSERT_TRUE(builder.AddSubsumption(y, x).ok());
  ConceptDag dag = std::move(builder).Build();
  EXPECT_TRUE(ValidateAcyclic(dag).IsFailedPrecondition());
}

TEST(Topology, ValidatesSingleRoot) {
  ConceptDagBuilder builder;
  ASSERT_TRUE(builder.AddConcept("r1").ok());
  ASSERT_TRUE(builder.AddConcept("r2").ok());
  ConceptDag dag = std::move(builder).Build();
  EXPECT_TRUE(ValidateExternalSource(dag).IsFailedPrecondition());
}

TEST(Topology, ValidatesEmptyGraph) {
  ConceptDag dag;
  EXPECT_TRUE(ValidateExternalSource(dag).IsFailedPrecondition());
}

TEST(Topology, DepthsFollowLongestChain) {
  Diamond d = MakeDiamond();
  auto depths = DepthsFromRoot(d.dag);
  ASSERT_TRUE(depths.ok());
  EXPECT_EQ((*depths)[d.root], 0u);
  EXPECT_EQ((*depths)[d.a], 1u);
  EXPECT_EQ((*depths)[d.ab], 2u);
  EXPECT_EQ((*depths)[d.leaf], 3u);
}

TEST(Traversal, AncestorsAndDescendants) {
  Diamond d = MakeDiamond();
  std::vector<ConceptId> anc = Ancestors(d.dag, d.leaf);
  EXPECT_EQ(anc.size(), 4u);  // ab, a, b, root
  EXPECT_TRUE(std::find(anc.begin(), anc.end(), d.leaf) == anc.end());

  std::vector<ConceptId> desc = Descendants(d.dag, d.root);
  EXPECT_EQ(desc.size(), 4u);
  EXPECT_TRUE(IsAncestorOf(d.dag, d.root, d.leaf));
  EXPECT_FALSE(IsAncestorOf(d.dag, d.leaf, d.root));
  EXPECT_FALSE(IsAncestorOf(d.dag, d.a, d.b));
}

TEST(Traversal, UpDistanceIsShortest) {
  Diamond d = MakeDiamond();
  EXPECT_EQ(UpDistance(d.dag, d.leaf, d.root), 3u);
  EXPECT_EQ(UpDistance(d.dag, d.leaf, d.ab), 1u);
  EXPECT_EQ(UpDistance(d.dag, d.a, d.b),
            std::numeric_limits<uint32_t>::max());
}

TEST(Traversal, NeighborsRespectRadius) {
  Diamond d = MakeDiamond();
  std::vector<Neighbor> r1 = NeighborsWithinRadius(d.dag, d.ab, 1);
  // a, b (parents) + leaf (child).
  EXPECT_EQ(r1.size(), 3u);
  std::vector<Neighbor> r2 = NeighborsWithinRadius(d.dag, d.ab, 2);
  EXPECT_EQ(r2.size(), 4u);  // + root
  EXPECT_TRUE(NeighborsWithinRadius(d.dag, d.ab, 0).empty());
}

TEST(Traversal, ShortcutPreservesOriginalDistance) {
  Diamond d = MakeDiamond();
  // Root is 3 hops from leaf.
  auto hops_of = [&](uint32_t radius) {
    for (const Neighbor& n : NeighborsWithinRadius(d.dag, d.leaf, radius)) {
      if (n.id == d.root) return n.hops;
    }
    return UINT32_MAX;
  };
  EXPECT_EQ(hops_of(2), UINT32_MAX);
  EXPECT_EQ(hops_of(3), 3u);
  // The shortcut a flagged leaf would get carries the distance it
  // replaces, so the radius-r ball (and every reported hop count) is the
  // same with or without it: the DAG does not store it.
  std::vector<bool> flagged(d.dag.num_concepts(), false);
  flagged[d.leaf] = true;
  bool found = false;
  for (const ShortcutEdge& e : ShortcutEdges(d.dag, flagged)) {
    if (e.child != d.leaf || e.ancestor != d.root) continue;
    found = true;
    EXPECT_EQ(e.distance, hops_of(3));
    EXPECT_EQ(e.distance, UpDistance(d.dag, d.leaf, d.root));
  }
  EXPECT_TRUE(found);
}

TEST(Traversal, ShortcutNeverShortensBelowOriginalDistance) {
  // Chain a <- b <- c <- e with e flagged: its shortcuts (e -> a,
  // distance 3; e -> b, distance 2) each match the hop count the native
  // search reports, so none could act as a bypass.
  ConceptDagBuilder builder;
  ConceptId a = *builder.AddConcept("a");
  ConceptId b = *builder.AddConcept("b");
  ConceptId c = *builder.AddConcept("c");
  ConceptId e = *builder.AddConcept("e");
  ASSERT_TRUE(builder.AddSubsumption(b, a).ok());
  ASSERT_TRUE(builder.AddSubsumption(c, b).ok());
  ASSERT_TRUE(builder.AddSubsumption(e, c).ok());
  ConceptDag dag = std::move(builder).Build();
  std::vector<bool> flagged(dag.num_concepts(), false);
  flagged[e] = true;
  const std::vector<ShortcutEdge> want = {{e, a, 3}, {e, b, 2}};
  ASSERT_EQ(ShortcutEdges(dag, flagged), want);
  std::vector<Neighbor> within = NeighborsWithinRadius(dag, e, 4);
  ASSERT_EQ(within.size(), 3u);
  for (const Neighbor& n : within) {
    if (n.id == c) {
      EXPECT_EQ(n.hops, 1u);
    } else if (n.id == b) {
      EXPECT_EQ(n.hops, 2u);
    } else {
      EXPECT_EQ(n.id, a);
      EXPECT_EQ(n.hops, 3u);
    }
  }
}

TEST(Traversal, RadiusExpanderResumesIncrementally) {
  Diamond d = MakeDiamond();
  // With every concept flagged nothing is peeled: the core is the DAG.
  FlaggedCore core(d.dag, std::vector<bool>(d.dag.num_concepts(), true));
  RadiusExpander expander;
  expander.Reset(core, core.Attach(d.leaf).node);
  std::vector<Neighbor> out;
  expander.ExpandTo(1, &out);
  EXPECT_EQ(out.size(), 1u);  // ab
  EXPECT_EQ(out[0].id, d.ab);
  expander.ExpandTo(2, &out);
  EXPECT_EQ(out.size(), 3u);  // + a, b
  expander.ExpandTo(3, &out);
  EXPECT_EQ(out.size(), 4u);  // + root
  // Results match the one-shot search at the final radius.
  std::vector<Neighbor> oneshot = NeighborsWithinRadius(d.dag, d.leaf, 3);
  ASSERT_EQ(oneshot.size(), out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, oneshot[i].id);
    EXPECT_EQ(out[i].hops, oneshot[i].hops);
  }
  // Re-expanding to an already-covered radius adds nothing.
  expander.ExpandTo(3, &out);
  EXPECT_EQ(out.size(), 4u);
}

TEST(Lcs, SelfLcsIsSelf) {
  Diamond d = MakeDiamond();
  LcsResult lcs = LeastCommonSubsumers(d.dag, d.ab, d.ab);
  ASSERT_EQ(lcs.concepts.size(), 1u);
  EXPECT_EQ(lcs.concepts[0], d.ab);
  EXPECT_EQ(lcs.combined_distance, 0u);
}

TEST(Lcs, AncestorPairLcsIsTheAncestor) {
  Diamond d = MakeDiamond();
  LcsResult lcs = LeastCommonSubsumers(d.dag, d.leaf, d.a);
  ASSERT_EQ(lcs.concepts.size(), 1u);
  EXPECT_EQ(lcs.concepts[0], d.a);
  EXPECT_EQ(lcs.combined_distance, 2u);
}

TEST(Lcs, SiblingsWithTwoMinimalSubsumersReturnTies) {
  Diamond d = MakeDiamond();
  // a and b have two minimal common subsumers? No — only root. But ab's
  // parents a, b are both minimal common subsumers of (a-child, b-child)
  // style pairs; construct one: leaf vs a sibling under both a and b.
  ConceptDagBuilder builder(d.dag);
  ConceptId other = *builder.AddConcept("other");
  ASSERT_TRUE(builder.AddSubsumption(other, d.a).ok());
  ASSERT_TRUE(builder.AddSubsumption(other, d.b).ok());
  d.dag = std::move(builder).Build();
  LcsResult lcs = LeastCommonSubsumers(d.dag, d.leaf, other);
  // Common subsumers: a, b (distance 2+1), root (3+2): minimal are a and b,
  // tied at combined distance 3.
  ASSERT_EQ(lcs.concepts.size(), 2u);
  EXPECT_EQ(lcs.combined_distance, 3u);
  EXPECT_TRUE((lcs.concepts[0] == d.a && lcs.concepts[1] == d.b) ||
              (lcs.concepts[0] == d.b && lcs.concepts[1] == d.a));
}

TEST(Lcs, ShortestPathTieBreakPrefersCloserSubsumer) {
  // Chain root <- mid <- x ; root <- y. LCS(x, y) should be root (the only
  // common subsumer), at combined distance 2 + 1.
  ConceptDagBuilder builder;
  ConceptId root = *builder.AddConcept("root");
  ConceptId mid = *builder.AddConcept("mid");
  ConceptId x = *builder.AddConcept("x");
  ConceptId y = *builder.AddConcept("y");
  ASSERT_TRUE(builder.AddSubsumption(mid, root).ok());
  ASSERT_TRUE(builder.AddSubsumption(x, mid).ok());
  ASSERT_TRUE(builder.AddSubsumption(y, root).ok());
  ConceptDag dag = std::move(builder).Build();
  LcsResult lcs = LeastCommonSubsumers(dag, x, y);
  ASSERT_EQ(lcs.concepts.size(), 1u);
  EXPECT_EQ(lcs.concepts[0], root);
  EXPECT_EQ(lcs.combined_distance, 3u);
}

TEST(Paths, SelfPathIsEmpty) {
  Diamond d = MakeDiamond();
  TaxonomicPath p = ShortestTaxonomicPath(d.dag, d.a, d.a);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.length(), 0u);
  EXPECT_EQ(p.apex, d.a);
}

TEST(Paths, PureGeneralizationPath) {
  Diamond d = MakeDiamond();
  TaxonomicPath p = ShortestTaxonomicPath(d.dag, d.leaf, d.root);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.length(), 3u);
  for (HopDirection h : p.hops) {
    EXPECT_EQ(h, HopDirection::kGeneralization);
  }
  EXPECT_EQ(p.apex, d.root);
}

TEST(Paths, PureSpecializationPath) {
  Diamond d = MakeDiamond();
  TaxonomicPath p = ShortestTaxonomicPath(d.dag, d.root, d.leaf);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.length(), 3u);
  for (HopDirection h : p.hops) {
    EXPECT_EQ(h, HopDirection::kSpecialization);
  }
}

TEST(Paths, SiblingPathGoesThroughApex) {
  Diamond d = MakeDiamond();
  TaxonomicPath p = ShortestTaxonomicPath(d.dag, d.a, d.b);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.length(), 2u);
  EXPECT_EQ(p.apex, d.root);
  EXPECT_EQ(p.hops[0], HopDirection::kGeneralization);
  EXPECT_EQ(p.hops[1], HopDirection::kSpecialization);
}

TEST(Paths, InvalidIdsAreNotFound) {
  Diamond d = MakeDiamond();
  EXPECT_FALSE(ShortestTaxonomicPath(d.dag, d.a, 999).found);
  EXPECT_FALSE(ShortestTaxonomicPath(d.dag, 999, d.a).found);
}

TEST(Paths, SubsumptionDistanceMatchesUpDistance) {
  Diamond d = MakeDiamond();
  EXPECT_EQ(SubsumptionDistance(d.dag, d.leaf, d.root), 3u);
  EXPECT_EQ(SubsumptionDistance(d.dag, d.root, d.leaf),
            std::numeric_limits<uint32_t>::max());
}

// Property sweep over generated DAGs: topo order exists, every concept is
// a descendant of the root, and neighborhood growth is monotone in radius.

class GeneratedDagSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedDagSweep, StructuralInvariants) {
  SnomedGeneratorOptions opts;
  opts.num_concepts = 400;
  opts.seed = GetParam();
  auto eks = GenerateSnomedLike(opts);
  ASSERT_TRUE(eks.ok()) << eks.status();
  ASSERT_TRUE(ValidateExternalSource(eks->dag).ok());

  std::vector<uint32_t> down = DownDistances(eks->dag, eks->root);
  for (ConceptId id = 0; id < eks->dag.num_concepts(); ++id) {
    EXPECT_NE(down[id], std::numeric_limits<uint32_t>::max())
        << "concept " << eks->dag.name(id) << " unreachable from root";
  }

  ConceptId probe = eks->finding_concepts[eks->finding_concepts.size() / 2];
  size_t prev = 0;
  for (uint32_t r = 1; r <= 4; ++r) {
    size_t now = NeighborsWithinRadius(eks->dag, probe, r).size();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedDagSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace medrelax
