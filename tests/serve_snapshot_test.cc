// Tests of the Snapshot bundle and the RCU-style SnapshotRegistry: build
// correctness, generation stamping, swap semantics, and old-snapshot
// liveness while readers hold references.

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/serve/snapshot.h"

namespace medrelax {
namespace {

Result<GeneratedWorld> SmallWorld(uint64_t seed = 7) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 600;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = 40;
  kb.seed = seed + 1;
  return GenerateWorld(eks, kb);
}

std::shared_ptr<Snapshot> BuildSmallSnapshot(
    uint64_t seed = 7, const SnapshotOptions& options = SnapshotOptions{}) {
  Result<GeneratedWorld> world = SmallWorld(seed);
  EXPECT_TRUE(world.ok()) << world.status();
  Result<std::shared_ptr<Snapshot>> snapshot = Snapshot::Build(
      std::move(world->eks.dag), std::move(world->kb), nullptr, options);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return *snapshot;
}

TEST(Snapshot, BuildRunsIngestionAndWiresTheRelaxer) {
  std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
  EXPECT_EQ(snap->generation(), 0u) << "unpublished snapshots have gen 0";
  EXPECT_GT(snap->ingestion().mappings.size(), 0u);
  EXPECT_GT(snap->ingestion().shortcuts_added, 0u);
  EXPECT_GT(snap->dag().num_shortcut_edges(), 0u)
      << "Build must customize the snapshot's own DAG";

  // The relaxer answers through the bundle's own members: resolve a mapped
  // instance's name and relax it.
  const auto& [instance, concept_id] = snap->ingestion().mappings.front();
  const std::string& term = snap->kb().instances.instance(instance).name;
  Result<RelaxationOutcome> outcome =
      snap->relaxer().Relax(term, kNoContext);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->instances.empty());
}

TEST(Snapshot, OptionsFingerprintReflectsConfiguration) {
  std::shared_ptr<Snapshot> defaults = BuildSmallSnapshot(7);
  std::shared_ptr<Snapshot> same = BuildSmallSnapshot(7);
  EXPECT_EQ(defaults->options_fingerprint(), same->options_fingerprint());

  SnapshotOptions tweaked;
  tweaked.relaxation.top_k = 3;
  std::shared_ptr<Snapshot> other = BuildSmallSnapshot(7, tweaked);
  EXPECT_NE(defaults->options_fingerprint(), other->options_fingerprint());
}

TEST(Snapshot, BuildFailsOnMultiRootedDag) {
  Result<GeneratedWorld> world = SmallWorld();
  ASSERT_TRUE(world.ok());
  ConceptDagBuilder dag(world->eks.dag);
  // A second root: a concept nothing subsumes.
  ASSERT_TRUE(dag.AddConcept("orphan root").ok());
  Result<std::shared_ptr<Snapshot>> snapshot =
      Snapshot::Build(std::move(dag).Build(), std::move(world->kb), nullptr,
                      SnapshotOptions{});
  EXPECT_FALSE(snapshot.ok());
}

TEST(SnapshotRegistry, PublishStampsMonotonicGenerations) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);

  std::shared_ptr<Snapshot> first = BuildSmallSnapshot(7);
  std::shared_ptr<Snapshot> second = BuildSmallSnapshot(8);
  EXPECT_EQ(registry.Publish(first), 1u);
  EXPECT_EQ(registry.Current()->generation(), 1u);
  EXPECT_EQ(registry.Publish(second), 2u);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.Current()->generation(), 2u);
}

TEST(SnapshotRegistry, ReadersKeepTheOldSnapshotAlive) {
  SnapshotRegistry registry;
  registry.Publish(BuildSmallSnapshot(7));
  std::shared_ptr<const Snapshot> reader = registry.Current();
  const size_t old_concepts = reader->dag().num_concepts();

  Result<GeneratedWorld> world = SmallWorld(/*seed=*/99);
  ASSERT_TRUE(world.ok());
  Result<std::shared_ptr<Snapshot>> replacement = Snapshot::Build(
      std::move(world->eks.dag), std::move(world->kb), nullptr,
      SnapshotOptions{});
  ASSERT_TRUE(replacement.ok());
  registry.Publish(std::move(*replacement));

  // The swapped-out snapshot must stay fully usable through the old ref.
  EXPECT_EQ(reader->generation(), 1u);
  EXPECT_EQ(reader->dag().num_concepts(), old_concepts);
  RelaxationOutcome outcome = reader->relaxer().RelaxConcept(
      reader->ingestion().mappings.front().second, kNoContext);
  EXPECT_FALSE(outcome.instances.empty());
  EXPECT_EQ(registry.Current()->generation(), 2u);
}

}  // namespace
}  // namespace medrelax
