// Property tests of the graph algorithms against brute-force reference
// implementations on random small DAGs: shortest up-distances
// (Floyd-Warshall oracle), ancestors, LCS (direct spec transcription), and
// taxonomic path lengths. Any divergence between the optimized library
// code and the obvious-but-slow definitions fails here. The hub cases
// pin the deferred frontier shell and the parent-side LCS check against
// the eager whole-DAG search (NeighborsWithinRadius) and the naive
// per-pair formulation on DAGs with a 1000+-child concept. The shortcut
// cases keep the invariance argument that lets the served DAG hold
// native edges only: every shortcut of Algorithm 1 spans exactly its
// native distance, so a search that walks shortcuts too finds the same
// ball at the same hops.

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/flagged_core.h"
#include "medrelax/graph/geometry.h"
#include "medrelax/graph/lcs.h"
#include "medrelax/graph/paths.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "tests/shortcut_reference.h"

namespace medrelax {
namespace {

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

// Random rooted DAG: node 0 is the root; every other node gets 1-3 parents
// with strictly smaller index (acyclic by construction).
ConceptDag RandomDag(size_t n, uint64_t seed) {
  Rng rng(seed);
  ConceptDagBuilder dag;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(dag.AddConcept(StrFormat("n%zu", i)).ok());
  }
  for (ConceptId i = 1; i < n; ++i) {
    size_t parents = 1 + rng.UniformU64(3);
    for (size_t p = 0; p < parents; ++p) {
      ConceptId parent = static_cast<ConceptId>(rng.UniformU64(i));
      Status st = dag.AddSubsumption(i, parent);  // duplicate edges refused
      (void)st;
    }
  }
  return std::move(dag).Build();
}

// Floyd-Warshall over the child->parent (upward) edges.
std::vector<std::vector<uint32_t>> RefUpDistances(const ConceptDag& dag) {
  const size_t n = dag.num_concepts();
  std::vector<std::vector<uint32_t>> d(n, std::vector<uint32_t>(n, kInf));
  for (ConceptId i = 0; i < n; ++i) {
    d[i][i] = 0;
    for (ConceptId parent : dag.parents(i)) d[i][parent] = 1;
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInf) continue;
      for (size_t j = 0; j < n; ++j) {
        if (d[k][j] == kInf) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

// Checks one engine's (a, b) geometry against the naive formulation.
void ExpectMatchesNaive(const ConceptDag& dag, GeometryEngine& engine,
                        ConceptId a, ConceptId b) {
  PairGeometry got = engine.Compute(b);
  TaxonomicPath path = ShortestTaxonomicPath(dag, a, b);
  ASSERT_EQ(got.connected, path.found) << a << " -> " << b;
  if (!path.found) return;
  double gen = 0.0, spec = 0.0;
  const double d = static_cast<double>(path.hops.size());
  for (size_t i = 0; i < path.hops.size(); ++i) {
    double exponent = d - static_cast<double>(i + 1);
    if (path.hops[i] == HopDirection::kGeneralization) {
      gen += exponent;
    } else {
      spec += exponent;
    }
  }
  EXPECT_DOUBLE_EQ(got.gen_exponent, gen) << a << " -> " << b;
  EXPECT_DOUBLE_EQ(got.spec_exponent, spec) << a << " -> " << b;
  LcsResult lcs = LeastCommonSubsumers(dag, a, b);
  std::sort(lcs.concepts.begin(), lcs.concepts.end());
  EXPECT_EQ(got.lcs, lcs.concepts) << "lcs(" << a << ", " << b << ")";
}

class GraphReferenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphReferenceSweep, UpDistancesMatchFloydWarshall) {
  ConceptDag dag = RandomDag(22, GetParam());
  auto ref = RefUpDistances(dag);
  for (ConceptId a = 0; a < dag.num_concepts(); ++a) {
    std::vector<uint32_t> got = UpDistances(dag, a);
    for (ConceptId b = 0; b < dag.num_concepts(); ++b) {
      EXPECT_EQ(got[b], ref[a][b]) << "up(" << a << ", " << b << ")";
    }
  }
}

TEST_P(GraphReferenceSweep, AncestorsMatchReachability) {
  ConceptDag dag = RandomDag(20, GetParam() + 100);
  auto ref = RefUpDistances(dag);
  for (ConceptId a = 0; a < dag.num_concepts(); ++a) {
    std::vector<ConceptId> anc = Ancestors(dag, a);
    std::sort(anc.begin(), anc.end());
    std::vector<ConceptId> expected;
    for (ConceptId b = 0; b < dag.num_concepts(); ++b) {
      if (b != a && ref[a][b] != kInf) expected.push_back(b);
    }
    EXPECT_EQ(anc, expected) << "ancestors of " << a;
  }
}

TEST_P(GraphReferenceSweep, TaxonomicPathLengthMatchesMinOverApexes) {
  ConceptDag dag = RandomDag(18, GetParam() + 200);
  auto ref = RefUpDistances(dag);
  const size_t n = dag.num_concepts();
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId b = 0; b < n; ++b) {
      uint32_t best = kInf;
      for (ConceptId c = 0; c < n; ++c) {
        if (ref[a][c] == kInf || ref[b][c] == kInf) continue;
        best = std::min(best, ref[a][c] + ref[b][c]);
      }
      TaxonomicPath path = ShortestTaxonomicPath(dag, a, b);
      if (best == kInf) {
        EXPECT_FALSE(path.found);
      } else {
        ASSERT_TRUE(path.found) << a << " -> " << b;
        EXPECT_EQ(path.length(), best) << a << " -> " << b;
        // The apex must actually subsume both ends at the claimed split.
        uint32_t up_a = 0, down_b = 0;
        for (HopDirection h : path.hops) {
          if (h == HopDirection::kGeneralization) {
            ++up_a;
          } else {
            ++down_b;
          }
        }
        EXPECT_EQ(ref[a][path.apex], up_a);
        EXPECT_EQ(ref[b][path.apex], down_b);
      }
    }
  }
}

TEST_P(GraphReferenceSweep, LcsMatchesSpecTranscription) {
  ConceptDag dag = RandomDag(16, GetParam() + 300);
  auto ref = RefUpDistances(dag);
  const size_t n = dag.num_concepts();
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId b = 0; b < n; ++b) {
      // Reference: common reflexive subsumers, keep the minimal ones (no
      // child is also common), then the shortest combined distance.
      auto common = [&](ConceptId c) {
        return ref[a][c] != kInf && ref[b][c] != kInf;
      };
      std::vector<ConceptId> minimal;
      for (ConceptId c = 0; c < n; ++c) {
        if (!common(c)) continue;
        bool is_minimal = true;
        for (ConceptId child : dag.children(c)) {
          if (common(child)) {
            is_minimal = false;
            break;
          }
        }
        if (is_minimal) minimal.push_back(c);
      }
      uint32_t best = kInf;
      for (ConceptId c : minimal) best = std::min(best, ref[a][c] + ref[b][c]);
      std::vector<ConceptId> expected;
      for (ConceptId c : minimal) {
        if (ref[a][c] + ref[b][c] == best) expected.push_back(c);
      }

      LcsResult got = LeastCommonSubsumers(dag, a, b);
      std::vector<ConceptId> got_sorted = got.concepts;
      std::sort(got_sorted.begin(), got_sorted.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got_sorted, expected) << "lcs(" << a << ", " << b << ")";
      if (!expected.empty()) {
        EXPECT_EQ(got.combined_distance, best);
      }
    }
  }
}

TEST_P(GraphReferenceSweep, NeighborsHopsMatchUndirectedBfs) {
  ConceptDag dag = RandomDag(20, GetParam() + 400);
  const size_t n = dag.num_concepts();
  // Reference undirected BFS.
  for (ConceptId start = 0; start < n; ++start) {
    std::vector<uint32_t> ref_hops(n, kInf);
    ref_hops[start] = 0;
    std::vector<ConceptId> queue = {start};
    for (size_t head = 0; head < queue.size(); ++head) {
      ConceptId u = queue[head];
      auto visit = [&](ConceptId v) {
        if (ref_hops[v] == kInf) {
          ref_hops[v] = ref_hops[u] + 1;
          queue.push_back(v);
        }
      };
      for (ConceptId v : dag.parents(u)) visit(v);
      for (ConceptId v : dag.children(u)) visit(v);
    }
    const uint32_t radius = 3;
    std::vector<Neighbor> got = NeighborsWithinRadius(dag, start, radius);
    std::vector<std::pair<ConceptId, uint32_t>> got_sorted;
    for (const Neighbor& nb : got) got_sorted.emplace_back(nb.id, nb.hops);
    std::sort(got_sorted.begin(), got_sorted.end());
    std::vector<std::pair<ConceptId, uint32_t>> expected;
    for (ConceptId v = 0; v < n; ++v) {
      if (v != start && ref_hops[v] <= radius) {
        expected.emplace_back(v, ref_hops[v]);
      }
    }
    EXPECT_EQ(got_sorted, expected) << "neighbors of " << start;
  }
}

// (id, hops) of every neighbor, sorted by id.
std::vector<std::pair<ConceptId, uint32_t>> ById(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<ConceptId, uint32_t>> out;
  for (const Neighbor& nb : neighbors) out.emplace_back(nb.id, nb.hops);
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(GraphReferenceSweep, NeighborsUnchangedByShortcuts) {
  // Shortcut edges carry their original distance, so a search that also
  // walks them must find every radius-bounded ball of the native search:
  // a shortcut for every strictly-transitive up-distance <= 4 (the
  // Algorithm 1 customization, exhaustively), and the rule's own edges
  // under a random flag set.
  const ConceptDag dag = RandomDag(20, GetParam() + 500);
  const size_t n = dag.num_concepts();
  const uint32_t radius = 3;
  auto ref = RefUpDistances(dag);
  std::vector<ShortcutEdge> exhaustive;
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId c = 0; c < n; ++c) {
      if (ref[a][c] != kInf && ref[a][c] >= 2 && ref[a][c] <= 4) {
        exhaustive.push_back({a, c, ref[a][c]});
      }
    }
  }
  Rng rng(GetParam() + 501);
  std::vector<bool> flagged(n);
  for (ConceptId id = 0; id < n; ++id) flagged[id] = rng.Bernoulli(0.3);
  for (const std::vector<ShortcutEdge>& shortcuts :
       {exhaustive, ShortcutEdges(dag, flagged)}) {
    const ShortcutSearch with_shortcuts(dag, shortcuts);
    for (ConceptId start = 0; start < n; ++start) {
      EXPECT_EQ(ById(NeighborsWithinRadius(dag, start, radius)),
                ById(with_shortcuts.Within(start, radius)))
          << "neighbors of " << start << " changed by shortcuts";
    }
  }
}

TEST_P(GraphReferenceSweep, GeometryEngineMatchesNaiveFormulation) {
  // The shared-frontier engine must reproduce, pair for pair, what the
  // naive formulation (ShortestTaxonomicPath + Equation 4 loop +
  // LeastCommonSubsumers) computes.
  const ConceptDag dag = RandomDag(18, GetParam() + 600);
  const size_t n = dag.num_concepts();
  GeometryEngine engine(&dag);
  for (ConceptId a = 0; a < n; ++a) {
    engine.SetSource(a);
    for (ConceptId b = 0; b < n; ++b) ExpectMatchesNaive(dag, engine, a, b);
  }
}

// Checks every edge ShortcutEdges returns for `flagged` on `dag`: at
// least two hops, no pair twice, its distance exactly the native
// up-distance (a plain BFS here, not the library's), a flagged end, and a
// whole-DAG search that walks the edges too finds the native balls.
void ExpectShortcutsSpanNativeDistance(const ConceptDag& dag,
                                       const std::vector<bool>& flagged,
                                       uint32_t radius, size_t start_step) {
  const std::vector<ShortcutEdge> shortcuts = ShortcutEdges(dag, flagged);
  ASSERT_FALSE(shortcuts.empty());
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  ConceptId last_child = kInvalidConcept;
  std::vector<uint32_t> up;
  for (const ShortcutEdge& e : shortcuts) {
    if (e.child != last_child) {
      // Native up-distances from the child, by BFS over parents.
      up.assign(dag.num_concepts(), kInf);
      up[e.child] = 0;
      std::vector<ConceptId> queue = {e.child};
      for (size_t head = 0; head < queue.size(); ++head) {
        for (ConceptId p : dag.parents(queue[head])) {
          if (up[p] != kInf) continue;
          up[p] = up[queue[head]] + 1;
          queue.push_back(p);
        }
      }
      last_child = e.child;
    }
    EXPECT_GE(e.distance, 2u);
    EXPECT_EQ(e.distance, up[e.ancestor])
        << dag.name(e.child) << " -> " << dag.name(e.ancestor);
    EXPECT_TRUE(flagged[e.child] || flagged[e.ancestor]);
    pairs.emplace_back(e.child, e.ancestor);
  }
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  const ShortcutSearch with_shortcuts(dag, shortcuts);
  for (ConceptId start = 0; start < dag.num_concepts(); start += start_step) {
    ASSERT_EQ(ById(NeighborsWithinRadius(dag, start, radius)),
              ById(with_shortcuts.Within(start, radius)))
        << "neighbors of " << dag.name(start);
  }
}

TEST(ShortcutInvariance, Figure5ShortcutsSpanTheirNativeDistance) {
  Result<Figure5Fixture> fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  KnowledgeBase kb;
  Result<DomainOntology> onto = BuildFigure1Ontology();
  ASSERT_TRUE(onto.ok());
  kb.ontology = std::move(*onto);
  const OntologyConceptId finding = kb.ontology.FindConcept("Finding");
  ASSERT_TRUE(kb.instances.AddInstance("kidney disease", finding).ok());
  ASSERT_TRUE(
      kb.instances.AddInstance("hypertensive renal disease", finding).ok());
  NameIndex index(&fx->dag);
  ExactMatcher matcher(&index);
  Result<IngestionResult> ingestion =
      RunIngestion(kb, fx->dag, matcher, nullptr, IngestionOptions{});
  ASSERT_TRUE(ingestion.ok()) << ingestion.status();
  ExpectShortcutsSpanNativeDistance(fx->dag, ingestion->flagged,
                                    /*radius=*/4, /*start_step=*/1);
}

TEST(ShortcutInvariance, BenchWorldShortcutsSpanTheirNativeDistance) {
  // The ablation bench's standard world, flagged by its own ingestion.
  SnomedGeneratorOptions eks;
  eks.num_concepts = 4000;
  eks.seed = 2026;
  KbGeneratorOptions kb;
  kb.num_drugs = 120;
  kb.num_findings = 800;
  kb.seed = 2027;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  ASSERT_TRUE(world.ok()) << world.status();
  CorpusGeneratorOptions corpus_opts;
  corpus_opts.seed = 2028;
  const Corpus corpus = GenerateMonographCorpus(*world, corpus_opts);
  NameIndex index(&world->eks.dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  Result<IngestionResult> ingestion = RunIngestion(
      world->kb, world->eks.dag, matcher, &corpus, IngestionOptions{});
  ASSERT_TRUE(ingestion.ok()) << ingestion.status();
  ExpectShortcutsSpanNativeDistance(world->eks.dag, ingestion->flagged,
                                    /*radius=*/4, /*start_step=*/7);
}

// RandomDag plus a hub: a concept under a random node with `hub_children` leaf children
// (every tenth also under a random node, so the hub's fan-out is reachable
// from both sides) and a native chain hub <- chain[0] <- chain[1] <-
// chain[2] hanging below it.
struct HubDag {
  ConceptDag dag;
  ConceptId hub = kInvalidConcept;
  std::vector<ConceptId> chain;
  std::vector<ConceptId> leaves;
};

HubDag RandomHubDag(size_t n, size_t hub_children, uint64_t seed) {
  HubDag h;
  ConceptDagBuilder h_dag(RandomDag(n, seed));
  Rng rng(seed + 1);
  h.hub = *h_dag.AddConcept("hub");
  EXPECT_TRUE(h_dag.AddSubsumption(
                       h.hub, static_cast<ConceptId>(rng.UniformU64(n)))
                  .ok());
  ConceptId below = h.hub;
  for (size_t i = 0; i < 3; ++i) {
    ConceptId link = *h_dag.AddConcept(StrFormat("chain%zu", i));
    EXPECT_TRUE(h_dag.AddSubsumption(link, below).ok());
    h.chain.push_back(link);
    below = link;
  }
  for (size_t i = 0; i < hub_children; ++i) {
    ConceptId leaf = *h_dag.AddConcept(StrFormat("leaf%zu", i));
    EXPECT_TRUE(h_dag.AddSubsumption(leaf, h.hub).ok());
    if (i % 10 == 0) {
      EXPECT_TRUE(h_dag.AddSubsumption(
                           leaf, static_cast<ConceptId>(rng.UniformU64(n)))
                      .ok());
    }
    h.leaves.push_back(leaf);
  }
  h.dag = std::move(h_dag).Build();
  return h;
}

// (hops, id) of every neighbor, each hop level sorted by id, after
// checking that hops never decrease. The expander emits a level in
// breadth-first order over the core and the eager search over the whole
// DAG, so only the levels' contents, not their order, must agree: the
// same ball, and every concept at the same hop.
std::vector<std::pair<uint32_t, ConceptId>> Levels(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<uint32_t, ConceptId>> out;
  for (const Neighbor& nb : neighbors) {
    EXPECT_TRUE(out.empty() || out.back().first <= nb.hops)
        << "hop " << nb.hops << " after hop " << out.back().first;
    out.emplace_back(nb.hops, nb.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(GraphReferenceSweep, IncrementalExpansionMatchesEagerOnHubDag) {
  HubDag h = RandomHubDag(40, 1200, GetParam() + 700);
  std::vector<ConceptId> starts;
  for (ConceptId id = 0; id < 40; ++id) starts.push_back(id);
  starts.push_back(h.hub);
  starts.insert(starts.end(), h.chain.begin(), h.chain.end());
  for (size_t i = 0; i < h.leaves.size(); i += 97) {
    starts.push_back(h.leaves[i]);
  }
  // Single steps, r then r + 1, skipped radii, repeated radii.
  const std::vector<std::vector<uint32_t>> schedules = {
      {3}, {0, 1, 2, 3, 4, 5}, {1, 3, 6}, {2, 2, 4, 4, 7}, {0, 8}, {4, 5}};
  // With every concept flagged nothing is peeled, so the expander walks
  // the whole DAG and must reproduce the eager whole-DAG search. One
  // expander is re-anchored across every run, as the relaxer reuses its
  // thread's expander.
  const FlaggedCore core(h.dag,
                         std::vector<bool>(h.dag.num_concepts(), true));
  ASSERT_EQ(core.num_nodes(), h.dag.num_concepts());
  RadiusExpander reused;
  for (ConceptId start : starts) {
    for (const std::vector<uint32_t>& schedule : schedules) {
      RadiusExpander fresh;
      fresh.Reset(core, core.Attach(start).node);
      reused.Reset(core, core.Attach(start).node);
      std::vector<Neighbor> got_fresh, got_reused;
      for (uint32_t radius : schedule) {
        const std::vector<Neighbor> want =
            NeighborsWithinRadius(h.dag, start, radius);
        fresh.ExpandTo(radius, &got_fresh);
        reused.ExpandTo(radius, &got_reused);
        ASSERT_EQ(Levels(got_fresh), Levels(want))
            << "start " << start << " radius " << radius;
        ASSERT_EQ(Levels(got_reused), Levels(want))
            << "start " << start << " radius " << radius;
      }
    }
  }
}

TEST_P(GraphReferenceSweep, BallEndingAtHubSkipsHubFanOut) {
  HubDag h = RandomHubDag(40, 1200, GetParam() + 800);
  const size_t hub_degree = h.dag.children(h.hub).size();
  ASSERT_GE(hub_degree, 1000u);
  // chain[2] is three native hops below the hub: its radius-3 ball ends
  // exactly at the hub. Every concept flagged: the core is the DAG.
  const FlaggedCore core(h.dag,
                         std::vector<bool>(h.dag.num_concepts(), true));
  RadiusExpander expander;
  expander.Reset(core, core.Attach(h.chain[2]).node);
  std::vector<Neighbor> out;
  expander.ExpandTo(3, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().id, h.hub);
  EXPECT_EQ(out.back().hops, 3u);
  EXPECT_LT(expander.edges_relaxed(), hub_degree)
      << "the radius-3 shell must not relax the hub's edges";
  // Growing the radius relaxes the deferred shell, and the ball is the
  // eager one.
  expander.ExpandTo(4, &out);
  EXPECT_GE(expander.edges_relaxed(), hub_degree);
  EXPECT_EQ(Levels(out),
            Levels(NeighborsWithinRadius(h.dag, h.chain[2], 4)));
}

TEST_P(GraphReferenceSweep, GeometryEngineMatchesNaiveOnHubDag) {
  HubDag h = RandomHubDag(30, 1000, GetParam() + 900);
  std::vector<ConceptId> probes;
  for (ConceptId id = 0; id < 30; ++id) probes.push_back(id);
  probes.push_back(h.hub);
  probes.insert(probes.end(), h.chain.begin(), h.chain.end());
  for (size_t i = 0; i < h.leaves.size(); i += 83) {
    probes.push_back(h.leaves[i]);
  }
  GeometryEngine engine(&h.dag);
  for (ConceptId a : probes) {
    engine.SetSource(a);
    for (ConceptId b : probes) ExpectMatchesNaive(h.dag, engine, a, b);
  }
}

TEST(GeometryEngine, TiedLcsUnderAHubMatchesNaive) {
  // root <- {p1, p2}; x and y each sit under both p1 and p2, so
  // lcs(x, y) = {p1, p2}; p1 is also a hub with 1000 more children, and
  // z under x and y adds a tie one level further down.
  ConceptDagBuilder builder;
  ConceptId root = *builder.AddConcept("root");
  ConceptId p1 = *builder.AddConcept("p1");
  ConceptId p2 = *builder.AddConcept("p2");
  ConceptId x = *builder.AddConcept("x");
  ConceptId y = *builder.AddConcept("y");
  ConceptId z = *builder.AddConcept("z");
  ConceptId w = *builder.AddConcept("w");
  ASSERT_TRUE(builder.AddSubsumption(p1, root).ok());
  ASSERT_TRUE(builder.AddSubsumption(p2, root).ok());
  for (ConceptId c : {x, y}) {
    ASSERT_TRUE(builder.AddSubsumption(c, p1).ok());
    ASSERT_TRUE(builder.AddSubsumption(c, p2).ok());
  }
  ASSERT_TRUE(builder.AddSubsumption(z, x).ok());
  ASSERT_TRUE(builder.AddSubsumption(z, y).ok());
  ASSERT_TRUE(builder.AddSubsumption(w, x).ok());
  ASSERT_TRUE(builder.AddSubsumption(w, y).ok());
  for (size_t i = 0; i < 1000; ++i) {
    ConceptId leaf = *builder.AddConcept(StrFormat("leaf%zu", i));
    ASSERT_TRUE(builder.AddSubsumption(leaf, p1).ok());
  }
  ConceptDag dag = std::move(builder).Build();
  GeometryEngine engine(&dag);
  engine.SetSource(x);
  EXPECT_EQ(engine.Compute(y).lcs, (std::vector<ConceptId>{p1, p2}));
  engine.SetSource(z);
  EXPECT_EQ(engine.Compute(w).lcs, (std::vector<ConceptId>{x, y}));
  for (ConceptId a : {root, p1, p2, x, y, z, w, ConceptId{7}}) {
    engine.SetSource(a);
    for (ConceptId b : {root, p1, p2, x, y, z, w, ConceptId{7}}) {
      ExpectMatchesNaive(dag, engine, a, b);
    }
  }
}

TEST(GeometryEngine, ResetDropsTheAnchorAcrossDags) {
  // Concept 11 has different ancestors in the two DAGs. An engine that
  // kept its source sweep across Reset would score the second DAG's pairs
  // with the first DAG's distances.
  constexpr ConceptId kQuery = 11;
  HubDag big = RandomHubDag(40, 1000, 31);
  ConceptDag small = RandomDag(12, 32);
  std::vector<uint32_t> big_up = UpDistances(big.dag, kQuery);
  big_up.resize(small.num_concepts());
  ASSERT_NE(big_up, UpDistances(small, kQuery));
  GeometryEngine reused(&big.dag);
  reused.SetSource(kQuery);
  for (ConceptId b = 0; b < 40; ++b) (void)reused.Compute(b);
  reused.Reset(&small);
  EXPECT_EQ(reused.source(), kInvalidConcept);
  reused.SetSource(kQuery);
  GeometryEngine fresh(&small);
  fresh.SetSource(kQuery);
  for (ConceptId b = 0; b < small.num_concepts(); ++b) {
    PairGeometry want = fresh.Compute(b);
    PairGeometry got = reused.Compute(b);
    EXPECT_EQ(got.connected, want.connected) << b;
    EXPECT_EQ(got.gen_exponent, want.gen_exponent) << b;
    EXPECT_EQ(got.spec_exponent, want.spec_exponent) << b;
    EXPECT_EQ(got.lcs, want.lcs) << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphReferenceSweep,
                         ::testing::Values(11, 23, 57, 91, 1234, 777));

}  // namespace
}  // namespace medrelax
