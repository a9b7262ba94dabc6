// Property tests of the graph algorithms against brute-force reference
// implementations on random small DAGs: shortest up-distances
// (Floyd-Warshall oracle), ancestors, LCS (direct spec transcription), and
// taxonomic path lengths. Any divergence between the optimized library
// code and the obvious-but-slow definitions fails here.

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/geometry.h"
#include "medrelax/graph/lcs.h"
#include "medrelax/graph/paths.h"
#include "medrelax/graph/traversal.h"

namespace medrelax {
namespace {

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

// Random rooted DAG: node 0 is the root; every other node gets 1-3 parents
// with strictly smaller index (acyclic by construction).
ConceptDag RandomDag(size_t n, uint64_t seed) {
  Rng rng(seed);
  ConceptDag dag;
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
  return dag;
}

// Floyd-Warshall over the child->parent (upward) edges.
std::vector<std::vector<uint32_t>> RefUpDistances(const ConceptDag& dag) {
  const size_t n = dag.num_concepts();
  std::vector<std::vector<uint32_t>> d(n, std::vector<uint32_t>(n, kInf));
  for (ConceptId i = 0; i < n; ++i) {
    d[i][i] = 0;
    for (const DagEdge& e : dag.parents(i)) {
      if (!e.is_shortcut) d[i][e.target] = 1;
    }
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
      // native child is also common), then the shortest combined distance.
      auto common = [&](ConceptId c) {
        return ref[a][c] != kInf && ref[b][c] != kInf;
      };
      std::vector<ConceptId> minimal;
      for (ConceptId c = 0; c < n; ++c) {
        if (!common(c)) continue;
        bool is_minimal = true;
        for (const DagEdge& e : dag.children(c)) {
          if (!e.is_shortcut && common(e.target)) {
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
      for (const DagEdge& e : dag.parents(u)) visit(e.target);
      for (const DagEdge& e : dag.children(u)) visit(e.target);
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

TEST_P(GraphReferenceSweep, NeighborsUnchangedByShortcuts) {
  // Shortcut edges carry their original distance, so materializing them
  // must leave every radius-bounded search result untouched.
  ConceptDag dag = RandomDag(20, GetParam() + 500);
  const size_t n = dag.num_concepts();
  const uint32_t radius = 3;
  std::vector<std::vector<Neighbor>> before(n);
  for (ConceptId start = 0; start < n; ++start) {
    before[start] = NeighborsWithinRadius(dag, start, radius);
  }
  // Materialize a shortcut for every strictly-transitive up-distance <= 4
  // (the Algorithm 1 customization, exhaustively).
  auto ref = RefUpDistances(dag);
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId c = 0; c < n; ++c) {
      if (ref[a][c] != kInf && ref[a][c] >= 2 && ref[a][c] <= 4) {
        ASSERT_TRUE(dag.AddShortcut(a, c, ref[a][c]).ok());
      }
    }
  }
  for (ConceptId start = 0; start < n; ++start) {
    std::vector<Neighbor> after = NeighborsWithinRadius(dag, start, radius);
    auto sorted = [](std::vector<Neighbor> v) {
      std::vector<std::pair<ConceptId, uint32_t>> out;
      for (const Neighbor& nb : v) out.emplace_back(nb.id, nb.hops);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(sorted(before[start]), sorted(after))
        << "neighbors of " << start << " changed by shortcuts";
  }
}

TEST_P(GraphReferenceSweep, GeometryEngineMatchesNaiveFormulation) {
  // The shared-frontier engine must reproduce, pair for pair, what the
  // naive formulation (ShortestTaxonomicPath + Equation 4 loop +
  // LeastCommonSubsumers) computes — including on customized graphs.
  ConceptDag dag = RandomDag(18, GetParam() + 600);
  const size_t n = dag.num_concepts();
  auto ref = RefUpDistances(dag);
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId c = 0; c < n; ++c) {
      if (ref[a][c] != kInf && ref[a][c] >= 2 && ref[a][c] <= 3) {
        ASSERT_TRUE(dag.AddShortcut(a, c, ref[a][c]).ok());
      }
    }
  }
  GeometryEngine engine(&dag);
  for (ConceptId a = 0; a < n; ++a) {
    engine.SetSource(a);
    for (ConceptId b = 0; b < n; ++b) {
      PairGeometry got = engine.Compute(b);

      TaxonomicPath path = ShortestTaxonomicPath(dag, a, b);
      EXPECT_EQ(got.connected, path.found) << a << " -> " << b;
      if (!path.found) continue;
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
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphReferenceSweep,
                         ::testing::Values(11, 23, 57, 91, 1234, 777));

}  // namespace
}  // namespace medrelax
