// Tests of the flat snapshot image subsystem: a built snapshot must
// round-trip through WriteImage/LoadFromImage with bit-identical serving
// state, and every class of file corruption must surface as a typed
// Status from the validation pipeline — never UB (the asan job keeps
// this honest).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/flat/format.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/relax/frequency_model.h"
#include "medrelax/serve/snapshot.h"

namespace medrelax {
namespace {

using flat::FlatEdge;
using flat::FlatImageView;
using flat::ImageHeader;
using flat::SectionEntry;
using flat::SectionId;

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

/// One image of the seed-7 world, written once and shared read-only by
/// every test in this file (the corruption tests copy its bytes and
/// patch their own throwaway files). Empty on write failure. The path is
/// process-unique: ctest runs each case as its own process, and parallel
/// cases racing one shared filename can map a half-written image.
const std::string& SharedImagePath() {
  static const std::string path = []() -> std::string {
    std::shared_ptr<Snapshot> snap = BuildSmallSnapshot();
    if (snap == nullptr) return {};
    std::string candidate = testing::TempDir() + "flat_image_shared." +
                            std::to_string(::getpid()) + ".img";
    Status written = snap->WriteImage(candidate);
    if (!written.ok()) return {};
    return candidate;
  }();
  return path;
}

std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::vector<std::byte> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

/// Recomputes the payload checksum after a patch past the header. Header
/// patches (magic, version, file_size) need no restamp: the checksum
/// covers [sizeof(ImageHeader), end) only.
void Restamp(std::vector<std::byte>& bytes) {
  ASSERT_GE(bytes.size(), sizeof(ImageHeader));
  const uint64_t checksum = flat::FnvChecksum(
      std::span<const std::byte>(bytes).subspan(sizeof(ImageHeader)));
  std::memcpy(bytes.data() + offsetof(ImageHeader, payload_checksum),
              &checksum, sizeof(checksum));
}

/// Locates a section's directory entry by walking the directory the way
/// a reader would. `entry_pos` receives the entry's own byte offset so
/// tests can also patch the directory itself.
bool FindSection(const std::vector<std::byte>& bytes, SectionId id,
                 SectionEntry* entry, size_t* entry_pos = nullptr) {
  ImageHeader header;
  if (bytes.size() < sizeof(header)) return false;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const size_t pos = static_cast<size_t>(header.directory_offset) +
                       static_cast<size_t>(i) * sizeof(SectionEntry);
    if (pos + sizeof(SectionEntry) > bytes.size()) return false;
    SectionEntry candidate;
    std::memcpy(&candidate, bytes.data() + pos, sizeof(candidate));
    if (candidate.id == static_cast<uint32_t>(id)) {
      *entry = candidate;
      if (entry_pos != nullptr) *entry_pos = pos;
      return true;
    }
  }
  return false;
}

/// Writes a patched copy of the shared image and returns its path.
std::string WriteCorrupted(const std::string& name,
                           const std::vector<std::byte>& bytes) {
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(WriteFileBytes(path, bytes));
  return path;
}

TEST(FlatImageRoundTrip, MappedSnapshotMatchesTheBuiltOne) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::shared_ptr<Snapshot> built = BuildSmallSnapshot();
  Result<std::shared_ptr<Snapshot>> mapped =
      Snapshot::LoadFromImage(SharedImagePath());
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  EXPECT_GT((*mapped)->load_micros(), 0u);
  EXPECT_EQ((*mapped)->options_fingerprint(), built->options_fingerprint());

  // The customized DAG round-trips structurally: same concepts, same
  // native + shortcut edge counts, same names and adjacency per concept.
  const ConceptDag& a = built->dag();
  const ConceptDag& b = (*mapped)->dag();
  ASSERT_EQ(a.num_concepts(), b.num_concepts());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_shortcut_edges(), b.num_shortcut_edges());
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    ASSERT_EQ(a.name(id), b.name(id)) << "concept " << id;
    const auto& ap = a.parents(id);
    const auto& bp = b.parents(id);
    ASSERT_EQ(ap.size(), bp.size()) << "parents of " << id;
    for (size_t e = 0; e < ap.size(); ++e) {
      EXPECT_EQ(ap[e].target, bp[e].target);
      EXPECT_EQ(ap[e].original_distance, bp[e].original_distance);
      EXPECT_EQ(ap[e].is_shortcut, bp[e].is_shortcut);
    }
  }

  // Ingestion artifacts: contexts, mappings, FEC flags, and the
  // zero-copy frequency table must agree bit-for-bit (doubles were
  // memcpy'd, so exact equality is the correct assertion).
  const IngestionResult& ia = built->ingestion();
  const IngestionResult& ib = (*mapped)->ingestion();
  ASSERT_EQ(ia.contexts.size(), ib.contexts.size());
  for (ContextId c = 0; c < ia.contexts.size(); ++c) {
    EXPECT_EQ(ia.contexts.context(c), ib.contexts.context(c));
  }
  EXPECT_EQ(ia.mappings, ib.mappings);
  EXPECT_EQ(ia.flagged, ib.flagged);
  EXPECT_EQ(ia.unmapped_instances, ib.unmapped_instances);
  EXPECT_EQ(ia.shortcuts_added, ib.shortcuts_added);
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    EXPECT_EQ(ia.frequencies.Frequency(id, kNoContext),
              ib.frequencies.Frequency(id, kNoContext));
    for (ContextId c = 0; c < ia.contexts.size(); ++c) {
      ASSERT_EQ(ia.frequencies.Frequency(id, c),
                ib.frequencies.Frequency(id, c))
          << "concept " << id << " ctx " << c;
    }
  }

  // End to end: the mapped snapshot's relaxer produces the identical
  // ranked answer for a mapped instance's concept.
  const ConceptId query = ia.mappings.front().second;
  RelaxationOutcome oa = built->relaxer().RelaxConcept(query, kNoContext);
  RelaxationOutcome ob = (*mapped)->relaxer().RelaxConcept(query, kNoContext);
  EXPECT_EQ(oa.instances, ob.instances);
  ASSERT_EQ(oa.concepts.size(), ob.concepts.size());
  for (size_t i = 0; i < oa.concepts.size(); ++i) {
    EXPECT_EQ(oa.concepts[i].concept_id, ob.concepts[i].concept_id);
    EXPECT_EQ(oa.concepts[i].similarity, ob.concepts[i].similarity);
    EXPECT_EQ(oa.concepts[i].instances, ob.concepts[i].instances);
  }
}

TEST(FlatImageRoundTrip, IngestOptionsRoundTripThroughTheMeta) {
  SnapshotOptions tweaked;
  tweaked.use_exact_mapper = true;
  tweaked.relaxation.top_k = 3;
  std::shared_ptr<Snapshot> built = BuildSmallSnapshot(11, tweaked);
  const std::string path = testing::TempDir() + "flat_image_tweaked.img";
  ASSERT_TRUE(built->WriteImage(path).ok());

  Result<std::shared_ptr<Snapshot>> mapped = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE((*mapped)->options().use_exact_mapper);
  EXPECT_EQ((*mapped)->options().relaxation.top_k, 3u);
  EXPECT_EQ((*mapped)->options_fingerprint(), built->options_fingerprint());
}

// The rebuild workflow is "ingest onto the boot image's path, then
// RELOAD". Until the RELOAD lands, the live snapshot mapped from that
// path must keep answering from its own bytes: the writer renames a new
// file into place, so the old mapping keeps the old inode.
TEST(FlatImageRoundTrip, RewritingTheImageLeavesTheMappedSnapshotIntact) {
  const std::string path = testing::TempDir() + "flat_image_rewritten." +
                           std::to_string(::getpid()) + ".img";
  ASSERT_TRUE(BuildSmallSnapshot()->WriteImage(path).ok());
  Result<std::shared_ptr<Snapshot>> mapped = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const Snapshot& live = **mapped;
  const IngestionResult& ingestion = live.ingestion();
  auto frequency_table = [&]() {
    std::vector<double> table;
    for (ConceptId id = 0; id < live.dag().num_concepts(); ++id) {
      for (ContextId c = 0; c < ingestion.contexts.size(); ++c) {
        table.push_back(ingestion.frequencies.Frequency(id, c));
      }
    }
    return table;
  };
  const std::vector<double> table_before = frequency_table();
  const ConceptId query = ingestion.mappings.front().second;
  const RelaxationOutcome before =
      live.relaxer().RelaxConcept(query, kNoContext);
  const size_t size_before = ReadFileBytes(path).size();

  // A different, larger world written onto the same path.
  SnomedGeneratorOptions eks;
  eks.num_concepts = 900;
  eks.seed = 11;
  KbGeneratorOptions kb;
  kb.num_findings = 60;
  kb.seed = 12;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  ASSERT_TRUE(world.ok()) << world.status();
  Result<std::shared_ptr<Snapshot>> other = Snapshot::Build(
      std::move(world->eks.dag), std::move(world->kb), nullptr,
      SnapshotOptions{});
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_TRUE((*other)->WriteImage(path).ok());
  ASSERT_GE(ReadFileBytes(path).size(), size_before);

  EXPECT_EQ(frequency_table(), table_before);
  const RelaxationOutcome after =
      live.relaxer().RelaxConcept(query, kNoContext);
  EXPECT_EQ(after.instances, before.instances);
  ASSERT_EQ(after.concepts.size(), before.concepts.size());
  for (size_t i = 0; i < before.concepts.size(); ++i) {
    EXPECT_EQ(after.concepts[i].concept_id, before.concepts[i].concept_id);
    EXPECT_EQ(after.concepts[i].similarity, before.concepts[i].similarity);
  }

  // The path itself now holds the new image.
  Result<std::shared_ptr<Snapshot>> remapped = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(remapped.ok()) << remapped.status();
  EXPECT_EQ((*remapped)->dag().num_concepts(),
            (*other)->dag().num_concepts());
  std::remove(path.c_str());
}

// A write that cannot be renamed into place (the target is a directory)
// fails typed, removes its temp file and leaves the target as it was.
TEST(FlatImageRoundTrip, FailedWriteLeavesNoTempFileBehind) {
  const std::string dir = testing::TempDir() + "flat_image_dir." +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  EXPECT_FALSE(BuildSmallSnapshot()->WriteImage(dir).ok());
  struct stat st{};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  const std::string temp = dir + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(temp.c_str(), F_OK), 0);
  ::rmdir(dir.c_str());
}

TEST(FlatImageRoundTrip, ReservedMetaFlagsAreNeverWritten) {
  ASSERT_FALSE(SharedImagePath().empty());
  Result<std::unique_ptr<FlatImageView>> image =
      FlatImageView::Open(SharedImagePath());
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ((*image)->meta().flags &
                (flat::kMetaFlagReservedBit4 | flat::kMetaFlagReservedBit7),
            0u);
}

TEST(FlatImageCompat, CommittedImageWithReservedFlagsStillLoads) {
  // Written by an ingest that still set the reserved geometry-memo flag;
  // the layout and the fingerprint scheme are unchanged, so it must load
  // and keep its stored fingerprint.
  const std::string path = std::string(MEDRELAX_SOURCE_DIR) +
                           "/fuzz/corpus/fuzz_image/valid_tiny.img";
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_NE((*image)->meta().flags & flat::kMetaFlagReservedBit4, 0u);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ((*snap)->options_fingerprint(), 0xb2d89dcc68224b7dULL);
}

TEST(FlatImageHardening, MissingFileIsNotFound) {
  Result<std::unique_ptr<FlatImageView>> image =
      FlatImageView::Open(testing::TempDir() + "no_such_image.img");
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsNotFound()) << image.status();

  // The serving entry point surfaces the same typed error (what the
  // server's RELOAD handler prints as `err NotFound: ...`).
  Result<std::shared_ptr<Snapshot>> snap =
      Snapshot::LoadFromImage(testing::TempDir() + "no_such_image.img");
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsNotFound()) << snap.status();
}

TEST(FlatImageHardening, DirectoryPathIsInvalidArgument) {
  Result<std::unique_ptr<FlatImageView>> image =
      FlatImageView::Open(testing::TempDir());
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, FileSmallerThanTheHeaderIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  ASSERT_GE(bytes.size(), sizeof(ImageHeader));
  bytes.resize(sizeof(ImageHeader) - 1);
  const std::string path = WriteCorrupted("flat_tiny.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, TruncatedPayloadIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  ASSERT_GT(bytes.size(), sizeof(ImageHeader) + 256);
  bytes.resize(bytes.size() - 128);
  const std::string path = WriteCorrupted("flat_truncated.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, BadMagicIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  bytes[0] = std::byte{'X'};
  const std::string path = WriteCorrupted("flat_bad_magic.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, WrongVersionIsFailedPrecondition) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  const uint32_t future_version = flat::kImageVersion + 1;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &future_version,
              sizeof(future_version));
  const std::string path = WriteCorrupted("flat_wrong_version.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsFailedPrecondition()) << image.status();
}

TEST(FlatImageHardening, DeclaredSizeMismatchIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  const uint64_t wrong_size = bytes.size() + 4096;
  std::memcpy(bytes.data() + offsetof(ImageHeader, file_size), &wrong_size,
              sizeof(wrong_size));
  const std::string path = WriteCorrupted("flat_wrong_size.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, PayloadBitFlipFailsTheChecksum) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  bytes.back() ^= std::byte{0x01};
  const std::string path = WriteCorrupted("flat_bit_flip.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, OutOfBoundsSectionOffsetIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  size_t entry_pos = 0;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kFrequencyTable, &entry, &entry_pos));
  // Point the section past the end of the file, restamp so only the
  // bounds check (not the checksum) can reject it.
  const uint64_t oob_offset = bytes.size() + flat::kSectionAlignment;
  std::memcpy(bytes.data() + entry_pos + offsetof(SectionEntry, offset),
              &oob_offset, sizeof(oob_offset));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_oob_section.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, MisalignedSectionOffsetIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  size_t entry_pos = 0;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kFrequencyTable, &entry, &entry_pos));
  const uint64_t skewed = entry.offset + 1;
  std::memcpy(bytes.data() + entry_pos + offsetof(SectionEntry, offset),
              &skewed, sizeof(skewed));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_misaligned.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
}

TEST(FlatImageHardening, OverlappingSectionsAreInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry parent_offsets;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kDagParentOffsets, &parent_offsets));
  SectionEntry child_offsets;
  size_t child_entry_pos = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kDagChildOffsets, &child_offsets,
                          &child_entry_pos));
  // Alias the child-offsets section onto the parent-offsets bytes. The
  // entry stays in bounds, aligned, and uniquely-id'd — only the
  // overlap check can reject the aliasing.
  std::memcpy(bytes.data() + child_entry_pos + offsetof(SectionEntry, offset),
              &parent_offsets.offset, sizeof(parent_offsets.offset));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_overlap.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
  EXPECT_NE(image.status().message().find("overlaps"), std::string::npos)
      << image.status();
}

TEST(FlatImageHardening, SectionAliasingTheHeaderIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  size_t entry_pos = 0;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kFrequencyTable, &entry, &entry_pos));
  // Offset 0 is 16-byte aligned and in bounds, but the first 48 bytes
  // belong to the header — a section may not serve them as payload.
  const uint64_t zero_offset = 0;
  std::memcpy(bytes.data() + entry_pos + offsetof(SectionEntry, offset),
              &zero_offset, sizeof(zero_offset));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_header_alias.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
  EXPECT_NE(image.status().message().find("overlaps"), std::string::npos)
      << image.status();
}

TEST(FlatImageHardening, OversizedMetaCountIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &entry));
  // num_concepts = 2^64 - 1 used to sail through Open: downstream,
  // `expected_count + 1` wrapped to 0 in Strings and vector reserves
  // amplified the lie into bad_alloc. Open's count sanity check (no
  // count can exceed the file size) now rejects it up front.
  const uint64_t huge = ~uint64_t{0};
  std::memcpy(bytes.data() + entry.offset +
                  offsetof(flat::FlatMeta, num_concepts),
              &huge, sizeof(huge));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_huge_meta.img", bytes);
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsInvalidArgument()) << image.status();
  EXPECT_NE(image.status().message().find("num_concepts"), std::string::npos)
      << image.status();
}

TEST(FlatImageHardening, CorruptEdgeTargetIsRejectedByTheCodec) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  ASSERT_TRUE(FindSection(bytes, SectionId::kDagParentEdges, &entry));
  ASSERT_GE(entry.size, sizeof(FlatEdge));
  // A structurally valid image whose first parent edge points at a
  // nonexistent concept: the view opens fine (checksum restamped), the
  // codec's semantic validation must catch it.
  const uint32_t bogus_target = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + entry.offset + offsetof(FlatEdge, target),
              &bogus_target, sizeof(bogus_target));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_bad_edge.img", bytes);
  ASSERT_TRUE(FlatImageView::Open(path).ok())
      << "restamped image must pass whole-file validation";
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
}

TEST(FlatImageHardening, TamperedOptionsFingerprintIsRejectedAtLoad) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &entry));
  uint64_t fingerprint = 0;
  std::memcpy(&fingerprint,
              bytes.data() + entry.offset +
                  offsetof(flat::FlatMeta, options_fingerprint),
              sizeof(fingerprint));
  fingerprint ^= 0xDEADBEEFull;
  std::memcpy(bytes.data() + entry.offset +
                  offsetof(flat::FlatMeta, options_fingerprint),
              &fingerprint, sizeof(fingerprint));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_bad_fingerprint.img", bytes);
  ASSERT_TRUE(FlatImageView::Open(path).ok());
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
}

TEST(FrequencyModel, FromNormalizedTableServesTheBorrowedRows) {
  // 2 concepts x 1 context: one context row plus the aggregate row last.
  const std::vector<double> table = {1.0, 0.25,   // context 0
                                     1.0, 0.5};   // aggregate
  FrequencyModel model = FrequencyModel::FromNormalizedTable(
      /*num_concepts=*/2, /*num_contexts=*/1, /*smoothing=*/1.0,
      std::span<const double>(table));
  EXPECT_EQ(model.num_concepts(), 2u);
  EXPECT_EQ(model.num_contexts(), 1u);
  EXPECT_DOUBLE_EQ(model.Frequency(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.Frequency(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(model.Frequency(0, kNoContext), 1.0);
  EXPECT_DOUBLE_EQ(model.Frequency(1, kNoContext), 0.5);
  EXPECT_DOUBLE_EQ(model.Ic(0, kNoContext), 0.0);
  // The exposed table is the borrowed span itself — zero-copy.
  EXPECT_EQ(model.NormalizedTable().data(), table.data());
}

}  // namespace
}  // namespace medrelax
