// Property tests of the flagged core (graph/flagged_core.h) and of the
// relaxer's candidate search over it, against the eager whole-DAG search
// over the native edges and a list of shortcut edges (ShortcutSearch, the
// graph the paper's customization would serve). The worlds are random
// DAGs whose every up-distance 2..3 has a shortcut, a 1000-child hub with
// a native chain below it, a dangling chain, two isolated concepts and a
// detached component, under empty, all, one and sparse flag sets; some
// worlds also give the root a shortcut from every concept 2-6 hops below
// it, as "clinical finding" would have. The DAG itself holds native
// edges only:
//   * every flagged concept stays in the core, and for every concept v
//     and flagged f, d(v, f) = δ(v) + d_core(a(v), f);
//   * the core holds exactly the native edges between kept concepts, and
//     a search walks no more edges than the native degrees of the nodes
//     it expands;
//   * for every start (including out-of-range ids), every radius r up to
//     max_radius and several k, the relaxer returns the candidates,
//     effective radius and ranked outcome (scores bit for bit) of the
//     whole-DAG search.

#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/random.h"
#include "medrelax/common/string_util.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/graph/flagged_core.h"
#include "medrelax/graph/geometry.h"
#include "medrelax/graph/traversal.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"
#include "tests/shortcut_reference.h"

namespace medrelax {
namespace {

constexpr uint32_t kMaxRadius = 5;
constexpr size_t kHubChildren = 1000;

enum class Flags { kEmpty, kAll, kOne, kSparse };

struct CoreWorld {
  ConceptDag dag;
  /// Shortcut edges the reference search walks besides the native ones.
  std::vector<ShortcutEdge> shortcuts;
  ConceptId root = 0;
  std::vector<ConceptId> hub_leaves;
  /// The dangling chain, top (attached to the random part) to tip.
  std::vector<ConceptId> chain;
  IngestionResult ingestion;
};

// Random rooted DAG on `n` concepts (1-3 parents of smaller index each)
// with a shortcut for every up-distance 2..3, then: a hub
// under a random concept with kHubChildren leaves (every tenth also under
// a random concept) and a native 3-chain below it; a dangling 4-chain
// under a random concept; two isolated concepts; and a detached 5-concept
// tree. With `root_shortcuts`, every concept 2-6 native hops below the
// root also gets a shortcut to it. The shortcuts go to w.shortcuts. Flags and instances per `flags`; two
// contexts.
CoreWorld MakeCoreWorld(size_t n, Flags flags, uint64_t seed,
                        bool root_shortcuts) {
  CoreWorld w;
  ConceptDagBuilder dag;
  Rng rng(seed);
  auto add = [&](const char* prefix) {
    return *dag.AddConcept(StrFormat("%s%zu", prefix, dag.num_concepts()));
  };
  for (size_t i = 0; i < n; ++i) add("n");
  for (ConceptId i = 1; i < n; ++i) {
    const size_t parents = 1 + rng.UniformU64(3);
    for (size_t p = 0; p < parents; ++p) {
      (void)dag.AddSubsumption(i, static_cast<ConceptId>(rng.UniformU64(i)));
    }
  }
  const ConceptDag random_part = ConceptDagBuilder(dag).Build();
  for (ConceptId a = 0; a < n; ++a) {
    const std::vector<uint32_t> up = UpDistances(random_part, a);
    for (ConceptId c = 0; c < n; ++c) {
      if (up[c] >= 2 && up[c] <= 3) w.shortcuts.push_back({a, c, up[c]});
    }
  }
  auto random_core = [&] {
    return static_cast<ConceptId>(rng.UniformU64(n));
  };
  const ConceptId hub = add("hub");
  EXPECT_TRUE(dag.AddSubsumption(hub, random_core()).ok());
  ConceptId below = hub;
  for (int i = 0; i < 3; ++i) {
    const ConceptId link = add("hubchain");
    EXPECT_TRUE(dag.AddSubsumption(link, below).ok());
    below = link;
  }
  for (size_t i = 0; i < kHubChildren; ++i) {
    const ConceptId leaf = add("leaf");
    EXPECT_TRUE(dag.AddSubsumption(leaf, hub).ok());
    if (i % 10 == 0) {
      EXPECT_TRUE(dag.AddSubsumption(leaf, random_core()).ok());
    }
    w.hub_leaves.push_back(leaf);
  }
  below = random_core();
  for (int i = 0; i < 4; ++i) {
    const ConceptId link = add("chain");
    EXPECT_TRUE(dag.AddSubsumption(link, below).ok());
    w.chain.push_back(link);
    below = link;
  }
  add("isolated");
  add("isolated");
  const ConceptId detached = add("detached");
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(dag.AddSubsumption(add("detached"), detached).ok());
  }

  w.dag = std::move(dag).Build();
  if (root_shortcuts) {
    for (ConceptId v = 0; v < w.dag.num_concepts(); ++v) {
      const uint32_t up = UpDistance(w.dag, v, w.root);
      if (up >= 2 && up <= 6) w.shortcuts.push_back({v, w.root, up});
    }
  }
  const size_t total = w.dag.num_concepts();
  IngestionResult& ingestion = w.ingestion;
  ingestion.frequencies = FrequencyModel(total, 2);
  for (ConceptId id = 0; id < total; ++id) {
    for (ContextId ctx = 0; ctx < 2; ++ctx) {
      const double raw = id == w.root ? 1e6 : 1.0 + rng.UniformU64(100);
      ingestion.frequencies.SetRaw(id, ctx, raw);
    }
  }
  ingestion.frequencies.Normalize(w.root);
  // The empty set leaves `flagged` empty: ids past its end are unflagged.
  if (flags != Flags::kEmpty) ingestion.flagged.assign(total, false);
  auto flag = [&](ConceptId id) { ingestion.flagged[id] = true; };
  switch (flags) {
    case Flags::kEmpty:
      break;
    case Flags::kAll:
      for (ConceptId id = 0; id < total; ++id) flag(id);
      break;
    case Flags::kOne:
      flag(w.chain.back());  // a flagged leaf at the end of a chain
      break;
    case Flags::kSparse:
      for (ConceptId id = 0; id < total; ++id) {
        if (rng.UniformU64(id < n ? 8 : 150) == 0) flag(id);
      }
      break;
  }
  InstanceId next_instance = 0;
  std::vector<std::vector<InstanceId>> instances(ingestion.flagged.size());
  for (ConceptId id = 0; id < ingestion.flagged.size(); ++id) {
    if (!ingestion.flagged[id]) continue;
    for (ConceptId i = 0; i <= id % 3; ++i) {
      instances[id].push_back(next_instance++);
    }
  }
  ingestion.concept_instances = ConceptCsr::FromGroups(instances);
  return w;
}

bool IsFlagged(const IngestionResult& ingestion, ConceptId id) {
  return id < ingestion.flagged.size() && ingestion.flagged[id];
}

// Every concept, except that under the all-flags set (nothing is peeled
// and every ball is large) only every 97th hub leaf; plus three
// out-of-range ids.
std::vector<ConceptId> Starts(const CoreWorld& w, Flags flags) {
  std::vector<ConceptId> starts;
  for (ConceptId id = 0; id < w.dag.num_concepts(); ++id) {
    const bool leaf = id >= w.hub_leaves.front() && id <= w.hub_leaves.back();
    if (flags != Flags::kAll || !leaf || (id - w.hub_leaves[0]) % 97 == 0) {
      starts.push_back(id);
    }
  }
  const auto n = static_cast<ConceptId>(w.dag.num_concepts());
  starts.insert(starts.end(), {n, n + 7, kInvalidConcept});
  return starts;
}

struct Case {
  Flags flags;
  uint64_t seed;
  bool root_shortcuts = false;
};

constexpr const char* kFlagNames[] = {"Empty", "All", "One", "Sparse"};

void PrintTo(const Case& c, std::ostream* os) {
  *os << kFlagNames[static_cast<int>(c.flags)] << " flags, seed " << c.seed
      << (c.root_shortcuts ? ", root shortcuts" : "");
}

CoreWorld MakeCoreWorld(const Case& c) {
  return MakeCoreWorld(40, c.flags, c.seed, c.root_shortcuts);
}

class FlaggedCoreSweep : public ::testing::TestWithParam<Case> {};

TEST_P(FlaggedCoreSweep, CoreDistancesAddUpThroughTheAttachment) {
  const CoreWorld w = MakeCoreWorld(GetParam());
  const IngestionResult& ing = w.ingestion;
  const FlaggedCore core(w.dag, ing.flagged);
  const size_t n = w.dag.num_concepts();
  for (ConceptId id = 0; id < n; ++id) {
    if (!IsFlagged(ing, id)) continue;
    const FlaggedCore::Attachment self = core.Attach(id);
    ASSERT_NE(self.node, FlaggedCore::kNoNode) << "flagged " << id;
    EXPECT_EQ(core.concept_of(self.node), id);
    EXPECT_EQ(self.offset, 0u);
  }
  EXPECT_EQ(core.Attach(static_cast<ConceptId>(n)).node,
            FlaggedCore::kNoNode);
  // Only the all-flags set keeps the whole DAG; the others peel the hub's
  // single-parent leaves at least.
  if (GetParam().flags == Flags::kAll) {
    EXPECT_EQ(core.num_nodes(), n);
  } else {
    EXPECT_LT(core.num_nodes(), n / 2);
  }

  // Far enough to cover every component.
  constexpr uint32_t kFar = 64;
  const ShortcutSearch reference(w.dag, w.shortcuts);
  RadiusExpander expander;
  for (ConceptId v = 0; v < n; ++v) {
    std::unordered_map<ConceptId, uint32_t> want;
    for (const Neighbor& nb : reference.Within(v, kFar)) {
      if (IsFlagged(ing, nb.id)) want[nb.id] = nb.hops;
    }
    std::unordered_map<ConceptId, uint32_t> got;
    const FlaggedCore::Attachment a = core.Attach(v);
    if (a.node != FlaggedCore::kNoNode && a.offset <= kFar) {
      if (a.offset > 0 && IsFlagged(ing, core.concept_of(a.node))) {
        got[core.concept_of(a.node)] = a.offset;
      }
      std::vector<Neighbor> ball;
      expander.Reset(core, a.node);
      expander.ExpandTo(kFar - a.offset, &ball);
      for (const Neighbor& nb : ball) {
        if (IsFlagged(ing, nb.id)) got[nb.id] = a.offset + nb.hops;
      }
    }
    EXPECT_EQ(got, want) << "from concept " << v << " (" << w.dag.name(v)
                         << ")";
  }
}

size_t NativeDegree(const ConceptDag& dag, ConceptId v) {
  return dag.parents(v).size() + dag.children(v).size();
}

TEST_P(FlaggedCoreSweep, CoreWalksOnlyNativeEdges) {
  const CoreWorld w = MakeCoreWorld(GetParam());
  const FlaggedCore core(w.dag, w.ingestion.flagged);
  auto kept = [&](ConceptId id) {
    const FlaggedCore::Attachment a = core.Attach(id);
    return a.node != FlaggedCore::kNoNode && a.offset == 0;
  };
  // A node's core edges are its native edges to kept concepts, parents
  // first, in DAG order.
  for (FlaggedCore::Node u = 0; u < core.num_nodes(); ++u) {
    const ConceptId v = core.concept_of(u);
    std::vector<ConceptId> want;
    for (ConceptId t : w.dag.parents(v)) {
      if (kept(t)) want.push_back(t);
    }
    for (ConceptId t : w.dag.children(v)) {
      if (kept(t)) want.push_back(t);
    }
    std::vector<ConceptId> got;
    for (FlaggedCore::Node t : core.edges(u)) got.push_back(core.concept_of(t));
    ASSERT_EQ(got, want) << "core node of " << w.dag.name(v);
  }

  // A radius-r search walks the edges of the start and of every node
  // below hop r, and no others: at most their native degrees.
  RadiusExpander expander;
  for (FlaggedCore::Node start = 0; start < core.num_nodes(); ++start) {
    expander.Reset(core, start);
    std::vector<Neighbor> ball;
    size_t native_degrees = NativeDegree(w.dag, core.concept_of(start));
    size_t walked = 0;  // ball entries whose degrees are summed
    for (uint32_t radius = 1; radius <= kMaxRadius; ++radius) {
      expander.ExpandTo(radius, &ball);
      for (; walked < ball.size() && ball[walked].hops < radius; ++walked) {
        native_degrees += NativeDegree(w.dag, ball[walked].id);
      }
      ASSERT_LE(expander.edges_relaxed(), native_degrees)
          << "from " << w.dag.name(core.concept_of(start)) << " radius "
          << radius;
    }
  }
}

// Algorithm 2 line 2 on the whole DAG, then line 3's scoring and the
// ranking and exact-k truncation of lines 4-8: the relaxer as it was
// before the core.
RelaxationOutcome ReferenceRelax(const CoreWorld& w,
                                 const SimilarityModel& similarity,
                                 const std::vector<Neighbor>& ball,
                                 ConceptId query, ContextId context,
                                 uint32_t radius, size_t k) {
  const IngestionResult& ing = w.ingestion;
  auto instances = [&](ConceptId id) {
    const std::span<const InstanceId> of = ing.concept_instances[id];
    return std::vector<InstanceId>(of.begin(), of.end());
  };
  RelaxationOutcome outcome;
  std::vector<ConceptId> candidates;
  size_t covered = 0;
  auto consider = [&](ConceptId id) {
    if (!IsFlagged(ing, id)) return;
    candidates.push_back(id);
    covered += instances(id).size();
  };
  consider(query);
  size_t consumed = 0;
  for (;;) {
    for (; consumed < ball.size() && ball[consumed].hops <= radius;
         ++consumed) {
      consider(ball[consumed].id);
    }
    if (covered >= k || radius >= kMaxRadius) break;
    ++radius;
  }
  outcome.effective_radius = radius;
  outcome.stats.candidates_scanned = candidates.size();

  GeometryEngine engine(&w.dag);
  engine.SetSource(query);
  const SimilarityModel::ScoreSource source =
      similarity.Source(query, context);
  std::vector<ScoredConcept> scored;
  for (ConceptId b : candidates) {
    const double sim =
        b == query ? 1.0
                   : similarity.ScoreGeometry(engine.Compute(b), source, b);
    scored.push_back({b, sim, instances(b)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredConcept& a, const ScoredConcept& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.concept_id < b.concept_id;
            });
  for (ScoredConcept& sc : scored) {
    if (outcome.instances.size() >= k) break;
    for (InstanceId i : sc.instances) {
      if (outcome.instances.size() >= k) break;
      outcome.instances.push_back(i);
    }
    outcome.concepts.push_back(std::move(sc));
  }
  return outcome;
}

TEST_P(FlaggedCoreSweep, RelaxerMatchesWholeDagSearch) {
  const CoreWorld w = MakeCoreWorld(GetParam());
  std::vector<QueryRelaxer> relaxers;
  relaxers.reserve(kMaxRadius + 1);
  for (uint32_t radius = 0; radius <= kMaxRadius; ++radius) {
    RelaxationOptions options;
    options.radius = radius;
    options.max_radius = kMaxRadius;
    relaxers.emplace_back(&w.dag, &w.ingestion, nullptr, SimilarityOptions{},
                          options);
  }
  // k past every world's instance total makes the outcome the full
  // candidate set, ranked.
  const std::vector<size_t> ks = {1, 4, 100000};
  const ShortcutSearch reference(w.dag, w.shortcuts);
  for (ConceptId query : Starts(w, GetParam().flags)) {
    const std::vector<Neighbor> ball = reference.Within(query, kMaxRadius);
    const ContextId context = query % 2 == 0 ? kNoContext : 0;
    for (uint32_t radius = 0; radius <= kMaxRadius; ++radius) {
      const QueryRelaxer& relaxer = relaxers[radius];
      for (size_t k : ks) {
        const RelaxationOutcome want = ReferenceRelax(
            w, relaxer.similarity(), ball, query, context, radius, k);
        const RelaxationOutcome got =
            relaxer.RelaxConceptWithK(query, context, k);
        const std::string where =
            StrFormat("query %u radius %u k %zu", query, radius, k);
        ASSERT_EQ(got.effective_radius, want.effective_radius) << where;
        ASSERT_EQ(got.stats.candidates_scanned,
                  want.stats.candidates_scanned)
            << where;
        ASSERT_EQ(got.concepts.size(), want.concepts.size()) << where;
        for (size_t i = 0; i < want.concepts.size(); ++i) {
          ASSERT_EQ(got.concepts[i].concept_id, want.concepts[i].concept_id)
              << where << " rank " << i;
          // Bit for bit: the same geometry must give the same double.
          ASSERT_EQ(got.concepts[i].similarity, want.concepts[i].similarity)
              << where << " rank " << i;
          ASSERT_EQ(got.concepts[i].instances, want.concepts[i].instances)
              << where << " rank " << i;
        }
        ASSERT_EQ(got.instances, want.instances) << where;
      }
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return StrFormat("%s%llu%s", kFlagNames[static_cast<int>(info.param.flags)],
                   static_cast<unsigned long long>(info.param.seed),
                   info.param.root_shortcuts ? "RootShortcuts" : "");
}

INSTANTIATE_TEST_SUITE_P(
    FlagSets, FlaggedCoreSweep,
    ::testing::Values(Case{Flags::kEmpty, 3}, Case{Flags::kAll, 3},
                      Case{Flags::kOne, 3}, Case{Flags::kOne, 17},
                      Case{Flags::kSparse, 3}, Case{Flags::kSparse, 17},
                      Case{Flags::kSparse, 29}, Case{Flags::kAll, 3, true},
                      Case{Flags::kOne, 17, true},
                      Case{Flags::kSparse, 3, true},
                      Case{Flags::kSparse, 29, true}),
    CaseName);

}  // namespace
}  // namespace medrelax
