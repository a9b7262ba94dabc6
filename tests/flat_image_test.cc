// Tests of the flat snapshot image subsystem: a built snapshot must
// round-trip through WriteImage/LoadFromImage with bit-identical serving
// state, and every class of file corruption must surface as a typed
// Status from the validation pipeline — never UB (the asan job keeps
// this honest).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "medrelax/common/checksum.h"
#include "medrelax/common/string_util.h"
#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/flat/format.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/relax/frequency_model.h"
#include "medrelax/serve/snapshot.h"
#include "medrelax/text/normalize.h"

namespace medrelax {
namespace {

using flat::FlatImageView;
using flat::ImageHeader;
using flat::SectionEntry;
using flat::SectionId;

// ASan and TSan replace the allocator, so RSS says nothing about what
// the program keeps; the RSS test skips under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif
#else
constexpr bool kSanitizerAllocator = false;
#endif

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
  const uint64_t checksum = FnvChecksum(
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

  // The DAG round-trips structurally: same concepts, same edge count,
  // same names and adjacency per concept.
  const ConceptDag& a = built->dag();
  const ConceptDag& b = (*mapped)->dag();
  ASSERT_EQ(a.num_concepts(), b.num_concepts());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    ASSERT_EQ(a.name(id), b.name(id)) << "concept " << id;
    const std::span<const ConceptId> ap = a.parents(id);
    const std::span<const ConceptId> bp = b.parents(id);
    ASSERT_TRUE(std::equal(ap.begin(), ap.end(), bp.begin(), bp.end()))
        << "parents of " << id;
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
  ASSERT_EQ(ib.concept_instances.num_concepts(), a.num_concepts());
  ASSERT_EQ(ib.concept_contexts.num_concepts(), a.num_concepts());
  for (ConceptId id = 0; id < a.num_concepts(); ++id) {
    const std::span<const InstanceId> ai = ia.concept_instances[id];
    const std::span<const InstanceId> bi = ib.concept_instances[id];
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "instances of concept " << id;
    const std::span<const ContextId> ac = ia.concept_contexts[id];
    const std::span<const ContextId> bc = ib.concept_contexts[id];
    ASSERT_TRUE(std::equal(ac.begin(), ac.end(), bc.begin(), bc.end()))
        << "contexts of concept " << id;
  }
  EXPECT_EQ(ia.unmapped_instances, ib.unmapped_instances);
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
  // Written by an ingest that still set the reserved geometry-memo flag
  // (and converted to format versions 2, 3 and 4 section for section); the
  // fingerprint scheme is unchanged, so it must load and keep its stored
  // fingerprint.
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
      FindSection(bytes, SectionId::kFrequencyRows, &entry, &entry_pos));
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
      FindSection(bytes, SectionId::kFrequencyRows, &entry, &entry_pos));
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
      FindSection(bytes, SectionId::kFrequencyRows, &entry, &entry_pos));
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
  ASSERT_GE(entry.size, sizeof(ConceptId));
  // A structurally valid image whose first parent edge points at a
  // nonexistent concept: the view opens fine (checksum restamped), the
  // codec's semantic validation must catch it.
  const ConceptId bogus_target = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + entry.offset, &bogus_target,
              sizeof(bogus_target));
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

TEST(FlatImageHardening, VersionOneImageIsFailedPrecondition) {
  // Version 1 stored unterminated strings and no name index; the reader
  // refuses it rather than guessing.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  const uint32_t version_one = 1;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &version_one,
              sizeof(version_one));
  const std::string path = WriteCorrupted("flat_version_one.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsFailedPrecondition()) << snap.status();
}

TEST(FlatImageHardening, VersionTwoImageIsFailedPrecondition) {
  // Version 2 stored the dense frequency table (section 11) and no
  // sparse frequency sections; the reader refuses it rather than
  // guessing.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  const uint32_t version_two = 2;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &version_two,
              sizeof(version_two));
  const std::string path = WriteCorrupted("flat_version_two.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsFailedPrecondition()) << snap.status();
}

TEST(FlatImageHardening, VersionThreeImageIsFailedPrecondition) {
  // Version 3 stored 12-byte edges with shortcut distances and flags, and
  // a second copy of every normalized surface; the reader refuses it
  // rather than guessing.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  const uint32_t version_three = 3;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &version_three,
              sizeof(version_three));
  const std::string path = WriteCorrupted("flat_version_three.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsFailedPrecondition()) << snap.status();
}

TEST(FlatImageHardening, RetiredMetaFieldIsInvalidArgument) {
  // The shortcut fields of version 3 are reserved and zero; a nonzero
  // one comes from a producer this build does not know.
  ASSERT_FALSE(SharedImagePath().empty());
  const std::vector<std::byte> clean = ReadFileBytes(SharedImagePath());
  SectionEntry meta;
  ASSERT_TRUE(FindSection(clean, SectionId::kMeta, &meta));
  struct Field {
    size_t offset;
    size_t size;
    uint64_t value;
  };
  const Field fields[] = {
      {offsetof(flat::FlatMeta, reserved_shortcut_edges), 8, 1},
      {offsetof(flat::FlatMeta, reserved_shortcuts_added), 8, 7},
      {offsetof(flat::FlatMeta, reserved_max_shortcut_distance), 4, 3},
  };
  for (const Field& field : fields) {
    std::vector<std::byte> bytes = clean;
    std::memcpy(bytes.data() + meta.offset + field.offset, &field.value,
                field.size);
    Restamp(bytes);
    const std::string path = WriteCorrupted("flat_retired_meta.img", bytes);
    Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
    ASSERT_FALSE(snap.ok()) << "field at " << field.offset;
    EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
    EXPECT_NE(snap.status().message().find("retired meta field"),
              std::string::npos)
        << snap.status();
  }
  std::vector<std::byte> bytes = clean;
  uint32_t flags = 0;
  const size_t flags_at = meta.offset + offsetof(flat::FlatMeta, flags);
  std::memcpy(&flags, bytes.data() + flags_at, sizeof(flags));
  flags |= flat::kMetaFlagReservedBit1;
  std::memcpy(bytes.data() + flags_at, &flags, sizeof(flags));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_retired_flag.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
  EXPECT_NE(snap.status().message().find("flags bit 1"), std::string::npos)
      << snap.status();
}

/// Patches the uint32 at `index` of a section of the image at `source`,
/// restamps, and returns the load status of the result, which must pass
/// whole-file validation.
Status LoadWithPatchedWord(SectionId id, size_t index, uint32_t value,
                           const std::string& name,
                           const std::string& source = SharedImagePath()) {
  std::vector<std::byte> bytes = ReadFileBytes(source);
  SectionEntry entry;
  EXPECT_TRUE(FindSection(bytes, id, &entry));
  EXPECT_LT(index * sizeof(uint32_t), entry.size);
  std::memcpy(bytes.data() + entry.offset + index * sizeof(uint32_t), &value,
              sizeof(value));
  Restamp(bytes);
  const std::string path = WriteCorrupted(name, bytes);
  EXPECT_TRUE(FlatImageView::Open(path).ok());
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  return snap.ok() ? Status::OK() : snap.status();
}

TEST(FlatImageHardening, UnmirroredEdgeSidesAreInvalidArgument) {
  // Both sides are borrowed as they are, so a child edge that names
  // another (existing) concept than its parent edge must be caught at
  // load: every target stays in range, so only the mirroring is wrong.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  ASSERT_TRUE(FindSection(bytes, SectionId::kDagChildEdges, &entry));
  ASSERT_GE(entry.size, sizeof(ConceptId));
  ConceptId target = 0;
  std::memcpy(&target, bytes.data() + entry.offset, sizeof(target));
  const Status status = LoadWithPatchedWord(
      SectionId::kDagChildEdges, 0, target == 0 ? 1 : target - 1,
      "flat_unmirrored.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("mirror"), std::string::npos) << status;
}

/// The name entry records of the image at `path`, and the directory
/// entry of their section.
std::vector<NameEntryRecord> ImageRecords(const std::string& path,
                                          SectionEntry* entry) {
  const std::vector<std::byte> bytes = ReadFileBytes(path);
  EXPECT_TRUE(FindSection(bytes, SectionId::kNameEntryRecords, entry));
  std::vector<NameEntryRecord> records(entry->size / sizeof(NameEntryRecord));
  std::memcpy(records.data(), bytes.data() + entry->offset,
              records.size() * sizeof(NameEntryRecord));
  return records;
}

TEST(FlatImageHardening, SurfaceReferencePastItsTableIsInvalidArgument) {
  // A record whose surface is the raw name or synonym itself indexes the
  // concept-name or synonym table; one past either is refused at load.
  ASSERT_FALSE(SharedImagePath().empty());
  Result<std::unique_ptr<FlatImageView>> image =
      FlatImageView::Open(SharedImagePath());
  ASSERT_TRUE(image.ok()) << image.status();
  const flat::FlatMeta& meta = (*image)->meta();
  SectionEntry entry;
  const std::vector<NameEntryRecord> records =
      ImageRecords(SharedImagePath(), &entry);
  const auto synonym = std::find_if(
      records.begin(), records.end(), [](const NameEntryRecord& record) {
        return (record.surface & (kSurfaceCanonical | kSurfaceStored)) == 0;
      });
  ASSERT_NE(synonym, records.end()) << "the world has no synonym entry";
  ASSERT_NE(records[0].surface & kSurfaceCanonical, 0u);
  const struct {
    size_t record;
    uint32_t surface;
    const char* table;
  } cases[] = {
      {0, kSurfaceCanonical | static_cast<uint32_t>(meta.num_concepts),
       "concept-name"},
      {static_cast<size_t>(synonym - records.begin()),
       static_cast<uint32_t>(meta.num_synonyms), "synonym"},
  };
  for (const auto& c : cases) {
    const Status status = LoadWithPatchedWord(
        SectionId::kNameEntryRecords,
        (c.record * sizeof(NameEntryRecord) +
         offsetof(NameEntryRecord, surface)) /
            sizeof(uint32_t),
        c.surface, "flat_surface_past_table.img");
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    EXPECT_NE(status.message().find(c.table), std::string::npos) << status;
  }
}

/// The seed-7 world with surfaces that normalization changes (the
/// generated names are normalized already): every fifth concept gets its
/// name in capitals as a synonym, every seventh a punctuated one, and a
/// new concept under the root has a canonical name in mixed case.
std::shared_ptr<Snapshot> BuildStoredSurfaceSnapshot() {
  Result<GeneratedWorld> world = SmallWorld();
  EXPECT_TRUE(world.ok()) << world.status();
  ConceptDagBuilder dag(world->eks.dag);
  const ConceptId root = world->eks.dag.Roots().front();
  for (ConceptId id = 0; id < world->eks.dag.num_concepts(); ++id) {
    std::string name = world->eks.dag.name(id);
    if (id % 5 == 0) {
      std::string upper = name;
      for (char& c : upper) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      EXPECT_TRUE(dag.AddSynonym(id, upper).ok());
    }
    if (id % 7 == 0) {
      EXPECT_TRUE(dag.AddSynonym(id, " (" + name + "),  nos ").ok());
    }
  }
  Result<ConceptId> extra = dag.AddConcept("Extra-Renal Finding (Disorder)");
  EXPECT_TRUE(extra.ok()) << extra.status();
  EXPECT_TRUE(dag.AddSubsumption(*extra, root).ok());
  Result<std::shared_ptr<Snapshot>> snapshot =
      Snapshot::Build(std::move(dag).Build(), std::move(world->kb), nullptr,
                      SnapshotOptions{});
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return snapshot.ok() ? *snapshot : nullptr;
}

/// BuildStoredSurfaceSnapshot's image, written once per process.
const std::string& StoredSurfaceImagePath() {
  static const std::string path = []() -> std::string {
    std::shared_ptr<Snapshot> snap = BuildStoredSurfaceSnapshot();
    if (snap == nullptr) return {};
    std::string candidate = testing::TempDir() + "flat_image_stored." +
                            std::to_string(::getpid()) + ".img";
    return snap->WriteImage(candidate).ok() ? candidate : std::string();
  }();
  return path;
}

TEST(FlatImageRoundTrip, StoredSurfacesServeTheBuiltLookups) {
  // Only the surfaces that normalization changes are stored; every other
  // entry reads its raw name or synonym. Built and borrowed indexes
  // resolve every entry to the same normalized surface and answer the
  // same lookups.
  std::shared_ptr<Snapshot> built = BuildStoredSurfaceSnapshot();
  ASSERT_NE(built, nullptr);
  ASSERT_FALSE(StoredSurfaceImagePath().empty());
  Result<std::shared_ptr<Snapshot>> mapped =
      Snapshot::LoadFromImage(StoredSurfaceImagePath());
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const NameIndex& a = built->name_index();
  const NameIndex& b = (*mapped)->name_index();
  ASSERT_EQ(a.entries().size(), b.entries().size());
  size_t stored = 0;
  for (size_t e = 0; e < a.entries().size(); ++e) {
    const uint32_t ref = b.views().records[e].surface;
    const NameEntry entry = b.entries()[e];
    ASSERT_EQ(entry.surface, a.entries()[e].surface) << "entry " << e;
    EXPECT_EQ(entry.concept_id, a.entries()[e].concept_id);
    EXPECT_EQ(entry.is_canonical, a.entries()[e].is_canonical);
    const ConceptDag& dag = (*mapped)->dag();
    const size_t index = ref & kSurfaceIndexMask;
    const std::string raw = (ref & kSurfaceStored) != 0 ? std::string()
                            : entry.is_canonical
                                ? std::string(dag.name(index))
                                : std::string(dag.views().synonyms[index]);
    if ((ref & kSurfaceStored) != 0) {
      ++stored;
      EXPECT_NE(std::string(entry.surface), raw);
    } else {
      EXPECT_EQ(std::string(entry.surface), raw) << "entry " << e;
    }
    EXPECT_EQ(std::string(entry.surface), NormalizeTerm(entry.surface));
  }
  EXPECT_GT(stored, 100u);
  EXPECT_EQ(b.views().stored.size(), stored);
  for (ConceptId id = 0; id < built->dag().num_concepts(); id += 3) {
    const std::string name = built->dag().name(id);
    for (const std::string& term :
         {name, name + "x", " (" + name + "),  nos ", std::string("EXTRA RENAL")}) {
      EXPECT_EQ(b.FindExact(term), a.FindExact(term)) << term;
      const std::string normalized = NormalizeTerm(term);
      EXPECT_EQ(b.CandidatesWithin(normalized, 2),
                a.CandidatesWithin(normalized, 2))
          << term;
    }
  }
  EXPECT_FALSE(b.FindExact("extra renal finding disorder").empty());
}

TEST(FlatImageHardening, StoredSurfaceIndexPastTheStoredTableIsInvalidArgument) {
  ASSERT_FALSE(StoredSurfaceImagePath().empty());
  SectionEntry entry;
  const std::vector<NameEntryRecord> records =
      ImageRecords(StoredSurfaceImagePath(), &entry);
  const auto num_stored = static_cast<uint32_t>(
      std::count_if(records.begin(), records.end(),
                    [](const NameEntryRecord& record) {
                      return (record.surface & kSurfaceStored) != 0;
                    }));
  const auto stored = std::find_if(
      records.begin(), records.end(), [](const NameEntryRecord& record) {
        return (record.surface & kSurfaceStored) != 0;
      });
  ASSERT_NE(stored, records.end());
  const auto record = static_cast<size_t>(stored - records.begin());
  const Status status = LoadWithPatchedWord(
      SectionId::kNameEntryRecords,
      (record * sizeof(NameEntryRecord) + offsetof(NameEntryRecord, surface)) /
          sizeof(uint32_t),
      (stored->surface & ~kSurfaceIndexMask) | num_stored,
      "flat_stored_past_table.img", StoredSurfaceImagePath());
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("stored-surface"), std::string::npos)
      << status;
}

TEST(FlatImageHardening, ExactSlotBeyondTheEntriesIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry records;
  ASSERT_TRUE(FindSection(bytes, SectionId::kNameEntryRecords, &records));
  const auto num_entries =
      static_cast<uint32_t>(records.size / sizeof(NameEntryRecord));
  const Status status = LoadWithPatchedWord(
      SectionId::kNameExactSlots, 0, num_entries, "flat_bad_slot.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(FlatImageHardening, ExactSlotTableWithoutAFreeSlotIsInvalidArgument) {
  // A probe for an absent surface stops only at a free slot.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry slots;
  ASSERT_TRUE(FindSection(bytes, SectionId::kNameExactSlots, &slots));
  std::memset(bytes.data() + slots.offset, 0, slots.size);
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_full_slots.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
}

TEST(FlatImageHardening, FrequencyColumnBeyondTheRowsIsInvalidArgument) {
  // Column m is each row's default, the last value it holds; m + 1 would
  // read past the row.
  ASSERT_FALSE(SharedImagePath().empty());
  Result<std::unique_ptr<FlatImageView>> image =
      FlatImageView::Open(SharedImagePath());
  ASSERT_TRUE(image.ok()) << image.status();
  const uint32_t beyond = (*image)->meta().num_frequency_columns + 1;
  const Status status = LoadWithPatchedWord(
      SectionId::kFrequencyColumns, 0, beyond, "flat_bad_freq_column.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("frequency column"), std::string::npos)
      << status;
}

TEST(FlatImageHardening, ShortFrequencyRowsIsInvalidArgument) {
  // One value short: the section stays aligned and in bounds, so only
  // the loader's (contexts + 1) x (m + 1) check can reject it.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  size_t entry_pos = 0;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kFrequencyRows, &entry, &entry_pos));
  const uint64_t short_size = entry.size - sizeof(double);
  std::memcpy(bytes.data() + entry_pos + offsetof(SectionEntry, size),
              &short_size, sizeof(short_size));
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_short_freq_rows.img", bytes);
  ASSERT_TRUE(FlatImageView::Open(path).ok());
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
  EXPECT_NE(snap.status().message().find("frequency rows"), std::string::npos)
      << snap.status();
}

TEST(FlatImageHardening, TrigramPostingBeyondTheEntriesIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry records;
  ASSERT_TRUE(FindSection(bytes, SectionId::kNameEntryRecords, &records));
  const auto num_entries =
      static_cast<uint32_t>(records.size / sizeof(NameEntryRecord));
  const Status status = LoadWithPatchedWord(
      SectionId::kTrigramPostings, 0, num_entries, "flat_bad_posting.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(FlatImageHardening, LastTrigramPostingBeyondTheEntriesIsInvalidArgument) {
  // The only bad value is the last one, in a postings array whose length
  // is not a multiple of 8: a vectorized check must not drop its tail,
  // and the message still names the offending index.
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry records;
  ASSERT_TRUE(FindSection(bytes, SectionId::kNameEntryRecords, &records));
  SectionEntry postings;
  ASSERT_TRUE(FindSection(bytes, SectionId::kTrigramPostings, &postings));
  const size_t count = postings.size / sizeof(uint32_t);
  ASSERT_NE(count % 8, 0u) << "pick a world with a ragged postings tail";
  const auto num_entries =
      static_cast<uint32_t>(records.size / sizeof(NameEntryRecord));
  const Status status =
      LoadWithPatchedWord(SectionId::kTrigramPostings, count - 1, num_entries,
                          "flat_bad_last_posting.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find(StrFormat("value %u at %zu", num_entries,
                                            count - 1)),
            std::string::npos)
      << status;
}

/// Rewrites the shared image's concept-instance offsets with `patch`,
/// restamps, and returns the load status of the result.
template <typename Patch>
Status LoadWithPatchedInstanceOffsets(const std::string& name, Patch patch) {
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry entry;
  EXPECT_TRUE(FindSection(bytes, SectionId::kConceptInstanceOffsets, &entry));
  std::vector<uint64_t> offsets(entry.size / sizeof(uint64_t));
  std::memcpy(offsets.data(), bytes.data() + entry.offset,
              offsets.size() * sizeof(uint64_t));
  patch(offsets);
  std::memcpy(bytes.data() + entry.offset, offsets.data(),
              offsets.size() * sizeof(uint64_t));
  Restamp(bytes);
  const std::string path = WriteCorrupted(name, bytes);
  EXPECT_TRUE(FlatImageView::Open(path).ok());
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  return snap.ok() ? Status::OK() : snap.status();
}

TEST(FlatImageHardening, ConceptInstanceOffsetPastTheValuesIsInvalidArgument) {
  // The relaxer reads a concept's instances straight out of the mapping,
  // so an offset past the values would read past the section.
  ASSERT_FALSE(SharedImagePath().empty());
  const Status status = LoadWithPatchedInstanceOffsets(
      "flat_instance_offset_past.img",
      [](std::vector<uint64_t>& offsets) { offsets.back() += 1; });
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("concept-instance"), std::string::npos)
      << status;
}

TEST(FlatImageHardening, DecreasingConceptInstanceOffsetsAreInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  const Status status = LoadWithPatchedInstanceOffsets(
      "flat_instance_offsets_decrease.img",
      [](std::vector<uint64_t>& offsets) {
        // The first inner offset past a non-zero one drops below it;
        // the first and last offsets stay as they were.
        for (size_t j = 1; j + 1 < offsets.size(); ++j) {
          if (offsets[j - 1] > 0) {
            offsets[j] = offsets[j - 1] - 1;
            return;
          }
        }
        ADD_FAILURE() << "no offset could be made to decrease";
      });
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("decrease"), std::string::npos) << status;
}

TEST(FlatImageHardening, ConceptInstanceBeyondTheInstancesIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry meta;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &meta));
  uint64_t num_instances = 0;
  std::memcpy(&num_instances,
              bytes.data() + meta.offset +
                  offsetof(flat::FlatMeta, num_instances),
              sizeof(num_instances));
  const Status status = LoadWithPatchedWord(
      SectionId::kConceptInstanceValues, 0,
      static_cast<uint32_t>(num_instances), "flat_instance_beyond.img");
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("concept-instance"), std::string::npos)
      << status;
}

TEST(FlatImageHardening, UnterminatedNameIsInvalidArgument) {
  ASSERT_FALSE(SharedImagePath().empty());
  std::vector<std::byte> bytes = ReadFileBytes(SharedImagePath());
  SectionEntry blob;
  ASSERT_TRUE(FindSection(bytes, SectionId::kConceptNameBlob, &blob));
  ASSERT_GT(blob.size, 0u);
  bytes[blob.offset + blob.size - 1] = std::byte{'x'};
  Restamp(bytes);
  const std::string path = WriteCorrupted("flat_unterminated.img", bytes);
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsInvalidArgument()) << snap.status();
}

/// The [begin, end) address ranges /proc/self/maps lists for `path`.
std::vector<std::pair<uintptr_t, uintptr_t>> MappingsOf(
    const std::string& path) {
  std::vector<std::pair<uintptr_t, uintptr_t>> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.size() < path.size() ||
        line.compare(line.size() - path.size(), path.size(), path) != 0) {
      continue;
    }
    std::istringstream fields(line);
    std::string range;
    fields >> range;
    const size_t dash = range.find('-');
    out.emplace_back(std::stoull(range.substr(0, dash), nullptr, 16),
                     std::stoull(range.substr(dash + 1), nullptr, 16));
  }
  return out;
}

bool InMapping(const void* p,
               const std::vector<std::pair<uintptr_t, uintptr_t>>& ranges) {
  const auto address = reinterpret_cast<uintptr_t>(p);
  for (const auto& [begin, end] : ranges) {
    if (address >= begin && address < end) return true;
  }
  return false;
}

TEST(FlatImageRoundTrip, ServedStructuresAreReadFromTheMapping) {
  // An edit-mapper image: the first typo lookup after a load reads the
  // trigram postings and length buckets straight out of the mapping —
  // there is no build step — and so do the DAG and its names.
  ASSERT_FALSE(SharedImagePath().empty());
  Result<std::shared_ptr<Snapshot>> snap =
      Snapshot::LoadFromImage(SharedImagePath());
  ASSERT_TRUE(snap.ok()) << snap.status();
  const auto ranges = MappingsOf(SharedImagePath());
  ASSERT_FALSE(ranges.empty());

  const NameIndex& index = (*snap)->name_index();
  const NameIndexViews& views = index.views();
  const std::string name(index.entries()[0].surface);
  const std::string typo = name.substr(0, name.size() - 1);
  EXPECT_FALSE(index.CandidatesWithin(typo, 2).empty()) << typo;
  EXPECT_TRUE(InMapping(views.trigram_postings.data(), ranges));
  EXPECT_TRUE(InMapping(views.trigram_slots.data(), ranges));
  EXPECT_TRUE(InMapping(views.by_length.data(), ranges));
  EXPECT_TRUE(InMapping(views.exact_slots.data(), ranges));
  EXPECT_TRUE(InMapping(views.records.data(), ranges));
  EXPECT_TRUE(InMapping(views.names.blob().data(), ranges));
  EXPECT_TRUE(InMapping(views.synonyms.blob().data(), ranges));
  EXPECT_EQ(index.FindExact(name).front(), index.entries()[0].concept_id);

  const ConceptDag& dag = (*snap)->dag();
  EXPECT_TRUE(InMapping(dag.name(0).data(), ranges));
  EXPECT_TRUE(InMapping(dag.views().parents.edges.data(), ranges));
  EXPECT_TRUE(InMapping(dag.views().children.edges.data(), ranges));

  const IngestionResult& ingestion = (*snap)->ingestion();
  EXPECT_TRUE(InMapping(ingestion.concept_instances.offsets().data(), ranges));
  EXPECT_TRUE(InMapping(ingestion.concept_instances.values().data(), ranges));
  EXPECT_TRUE(InMapping(ingestion.concept_contexts.offsets().data(), ranges));
  EXPECT_TRUE(InMapping(ingestion.concept_contexts.values().data(), ranges));
}

TEST(FlatImageRoundTrip, ExactImageCarriesNoFuzzyTables) {
  SnapshotOptions exact;
  exact.use_exact_mapper = true;
  std::shared_ptr<Snapshot> built = BuildSmallSnapshot(7, exact);
  const std::string path =
      testing::TempDir() + "flat_exact." + std::to_string(::getpid()) + ".img";
  ASSERT_TRUE(built->WriteImage(path).ok());
  Result<std::unique_ptr<FlatImageView>> image = FlatImageView::Open(path);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_TRUE((*image)->HasSection(SectionId::kNameExactSlots));
  EXPECT_FALSE((*image)->HasSection(SectionId::kTrigramPostings));
  EXPECT_FALSE((*image)->HasSection(SectionId::kNameByLength));
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  const NameIndex& index = (*snap)->name_index();
  for (size_t e = 0; e < index.entries().size(); e += 97) {
    EXPECT_EQ(index.FindExact(index.entries()[e].surface),
              built->name_index().FindExact(index.entries()[e].surface));
  }
  std::remove(path.c_str());
}

/// Anonymous resident memory of this process, in KiB.
size_t RssAnonKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::stoul(line.substr(sizeof("RssAnon:") - 1));
    }
  }
  return 0;
}

TEST(FlatImageReload, AnonymousRssStaysFlatOverTenReloads) {
  // A 16k-concept image holds tens of MiB of DAG, names and name index.
  // Loads borrow them from the mapping, so reloading the same image ten
  // times, each publish freeing the previous snapshot, keeps anonymous
  // RSS where the first load left it.
  if (kSanitizerAllocator) GTEST_SKIP() << "sanitizer allocator";
  SnomedGeneratorOptions eks;
  eks.num_concepts = 16000;
  eks.seed = 5;
  KbGeneratorOptions kb;
  kb.num_findings = 400;
  kb.seed = 6;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  ASSERT_TRUE(world.ok()) << world.status();
  const std::string path =
      testing::TempDir() + "flat_reload." + std::to_string(::getpid()) + ".img";
  {
    Result<std::shared_ptr<Snapshot>> built =
        Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                        nullptr, SnapshotOptions{});
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE((*built)->WriteImage(path).ok());
  }
  SnapshotRegistry registry;
  Result<std::shared_ptr<Snapshot>> first = Snapshot::LoadFromImage(path);
  ASSERT_TRUE(first.ok()) << first.status();
  registry.Publish(std::move(*first));
  const size_t after_first = RssAnonKib();
  for (int reload = 0; reload < 10; ++reload) {
    Result<std::shared_ptr<Snapshot>> next = Snapshot::LoadFromImage(path);
    ASSERT_TRUE(next.ok()) << next.status();
    registry.Publish(std::move(*next));
  }
  const size_t after_ten = RssAnonKib();
  EXPECT_LE(after_ten, after_first + 2 * 1024)
      << "RssAnon " << after_first << " KiB after the first load, "
      << after_ten << " KiB after ten more";
  std::remove(path.c_str());
}

/// Checks every (concept, context or kNoContext) pair of `served`
/// against the dense Equation 1-2 reference computed inline from
/// `built`'s raw frequencies: f = (raw + s) / (raw(root) + s) and
/// IC = -log f, bit for bit.
void ExpectMatchesDenseReference(const FrequencyModel& built,
                                 ConceptId root,
                                 const FrequencyModel& served) {
  ASSERT_EQ(served.num_concepts(), built.num_concepts());
  ASSERT_EQ(served.num_contexts(), built.num_contexts());
  const double s = built.smoothing();
  std::vector<ContextId> tables;
  for (ContextId c = 0; c < built.num_contexts(); ++c) tables.push_back(c);
  tables.push_back(kNoContext);
  for (ContextId ctx : tables) {
    const double root_value = built.Raw(root, ctx) + s;
    for (ConceptId id = 0; id < built.num_concepts(); ++id) {
      const double f = (built.Raw(id, ctx) + s) / root_value;
      const double ic = f >= 1.0 ? 0.0 : -std::log(f);
      ASSERT_EQ(served.Frequency(id, ctx), f)
          << "concept " << id << " ctx " << ctx;
      ASSERT_EQ(served.Ic(id, ctx), ic) << "concept " << id << " ctx " << ctx;
      ASSERT_EQ(served.IcRowOf(ctx)[id], ic)
          << "concept " << id << " ctx " << ctx;
    }
  }
}

/// Builds the seed-7 small world with `corpus` (null: corpus-free),
/// writes its image, loads it back and checks the served frequencies
/// against the dense reference. Returns the image's column count.
size_t ImageFrequenciesMatchTheDenseReference(const Corpus* corpus,
                                              const std::string& name) {
  Result<GeneratedWorld> world = SmallWorld();
  EXPECT_TRUE(world.ok()) << world.status();
  if (!world.ok()) return 0;
  Result<std::shared_ptr<Snapshot>> built =
      Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                      corpus, SnapshotOptions{});
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return 0;
  const std::string path = testing::TempDir() + name + "." +
                           std::to_string(::getpid()) + ".img";
  EXPECT_TRUE((*built)->WriteImage(path).ok());
  Result<std::shared_ptr<Snapshot>> mapped = Snapshot::LoadFromImage(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  if (!mapped.ok()) return 0;
  const std::vector<ConceptId> roots = (*built)->dag().Roots();
  EXPECT_EQ(roots.size(), 1u);
  ExpectMatchesDenseReference((*built)->ingestion().frequencies,
                              roots.front(),
                              (*mapped)->ingestion().frequencies);
  const size_t columns = (*mapped)->ingestion().frequencies.num_columns();
  EXPECT_EQ(columns, (*built)->ingestion().frequencies.num_columns());
  std::remove(path.c_str());
  return columns;
}

TEST(FlatImageRoundTrip, CorpusFreeFrequenciesMatchTheDenseReference) {
  // Without a corpus every concept counts once: the leaves share each
  // row's default, and only the inner concepts get columns.
  const size_t columns =
      ImageFrequenciesMatchTheDenseReference(nullptr, "flat_freq_free");
  EXPECT_GT(columns, 0u);
  EXPECT_LT(columns, 600u);
}

TEST(FlatImageRoundTrip, CorpusFrequenciesMatchTheDenseReference) {
  Result<GeneratedWorld> world = SmallWorld();
  ASSERT_TRUE(world.ok()) << world.status();
  const Corpus corpus =
      GenerateMonographCorpus(*world, CorpusGeneratorOptions{});
  const size_t columns =
      ImageFrequenciesMatchTheDenseReference(&corpus, "flat_freq_corpus");
  EXPECT_GT(columns, 0u);
  EXPECT_LT(columns, 600u);
}

TEST(FlatImageRoundTrip, MentionlessCorpusFrequenciesHaveNoColumns) {
  // A corpus that mentions nothing leaves every concept at f = s / s = 1:
  // m = 0, and each row is its default alone.
  const Corpus corpus;
  EXPECT_EQ(ImageFrequenciesMatchTheDenseReference(&corpus,
                                                   "flat_freq_mentionless"),
            0u);
}

TEST(FrequencyModel, EveryConceptWithAColumnMatchesTheDenseReference) {
  // Three concepts, two contexts. Context 0's values are all distinct,
  // so its default (the vote's survivor) is concept 2's; context 1 gives
  // concepts 0 and 1 the same value, which outvotes concept 2's. Each
  // concept thus differs from some row's default.
  FrequencyModel built(/*num_concepts=*/3, /*num_contexts=*/2);
  const double raw[2][3] = {{3.0, 2.0, 1.0}, {3.0, 3.0, 1.0}};
  for (ContextId c = 0; c < 2; ++c) {
    for (ConceptId id = 0; id < 3; ++id) built.SetRaw(id, c, raw[c][id]);
  }
  built.Normalize(/*root=*/0);
  ASSERT_EQ(built.num_columns(), 3u);
  ExpectMatchesDenseReference(built, 0, built);
  const FrequencyModel borrowed = FrequencyModel::FromSparse(
      2, built.smoothing(), built.columns(), built.rows());
  ExpectMatchesDenseReference(built, 0, borrowed);
}

TEST(FrequencyModel, SparseFormServesTheDefaultColumn) {
  // 3 concepts x 1 context, m = 1: concept 1 has column 0, concepts 0
  // and 2 read the default column 1 of each row.
  const std::vector<uint32_t> columns = {1, 0, 1};
  const std::vector<double> rows = {0.25, 1.0,   // context 0
                                    0.5, 1.0};   // aggregate
  const FrequencyModel model = FrequencyModel::FromSparse(
      /*num_contexts=*/1, /*smoothing=*/1.0, columns, rows);
  EXPECT_EQ(model.num_concepts(), 3u);
  EXPECT_EQ(model.num_contexts(), 1u);
  EXPECT_EQ(model.num_columns(), 1u);
  EXPECT_EQ(model.Frequency(0, 0), 1.0);
  EXPECT_EQ(model.Frequency(1, 0), 0.25);
  EXPECT_EQ(model.Frequency(2, kNoContext), 1.0);
  EXPECT_EQ(model.Frequency(1, kNoContext), 0.5);
  EXPECT_EQ(model.Ic(2, 0), 0.0);
  EXPECT_EQ(model.Ic(1, 0), -std::log(0.25));
  EXPECT_EQ(model.IcRowOf(kNoContext)[1], -std::log(0.5));
  // The served form is the borrowed spans themselves — zero-copy.
  EXPECT_EQ(model.columns().data(), columns.data());
  EXPECT_EQ(model.rows().data(), rows.data());
}

}  // namespace
}  // namespace medrelax
