#ifndef MEDRELAX_FLAT_FORMAT_H_
#define MEDRELAX_FLAT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace medrelax::flat {

// The flat snapshot image: one header, one section directory, then the
// sections themselves — every structure below is a little-endian,
// fixed-layout POD read directly out of the mapped file, so a reader
// never parses, only bounds-checks (docs/SNAPSHOT_FORMAT.md).
//
//   [ImageHeader]
//   [SectionEntry x section_count]        <- at header.directory_offset
//   [section payload ...]                 <- each 16-byte aligned
//
// The checksum (common/checksum.h FnvChecksum) covers every byte after
// the header (directory included), so a reader that validates the
// header + checksum before dereferencing the directory can trust section
// offsets only after the per-entry bounds checks — corruption must
// surface as a typed Status, never UB.

/// File magic, first 8 bytes: "MRXIMG" + 2-digit major format revision.
inline constexpr char kImageMagic[8] = {'M', 'R', 'X', 'I', 'M', 'G',
                                        '0', '1'};

/// Bumped on any layout change; readers refuse other versions
/// (FailedPrecondition — the image is well-formed, just not ours).
/// Version 2: NUL-terminated string tables, and the name index sections
/// (kNameSurfaceOffsets onward), so a served snapshot borrows the DAG,
/// its names and the name index from the mapping.
inline constexpr uint32_t kImageVersion = 2;

/// Written as a native uint32; a reader on an opposite-endian host sees
/// the byte-swapped value and refuses the image.
inline constexpr uint32_t kEndianMarker = 0x01020304u;

/// Section payloads are aligned to this, which satisfies every element
/// type an image stores (the widest is double/uint64_t at 8).
inline constexpr uint64_t kSectionAlignment = 16;

/// Identity of one section. Values are stable across format revisions:
/// new sections append, existing ids are never reused.
enum class SectionId : uint32_t {
  kMeta = 1,
  // Concept DAG: CSR adjacency per side; edge i of concept c lives in
  // edges[offsets[c] .. offsets[c + 1]). Edges are graph/concept_dag.h
  // DagEdge records (12 bytes: target, original distance, flags); the
  // two sides mirror each other.
  kDagParentOffsets = 2,
  kDagParentEdges = 3,
  kDagChildOffsets = 4,
  kDagChildEdges = 5,
  // Concept string table: string i is blob[offsets[i] .. offsets[i + 1]),
  // its NUL terminator last (every string table has this layout).
  kConceptNameOffsets = 6,
  kConceptNameBlob = 7,
  // Synonyms: group CSR (concept -> synonym-string range) over a second
  // string table.
  kSynonymGroupOffsets = 8,
  kSynonymNameOffsets = 9,
  kSynonymNameBlob = 10,
  // The normalized per-context frequency table, row-major [ctx][concept]
  // with the aggregate row last — served zero-copy out of the mapping.
  kFrequencyTable = 11,
  // Contexts: 3 consecutive strings (domain, relationship, range) per
  // context.
  kContextNameOffsets = 12,
  kContextNameBlob = 13,
  // Ingestion artifacts: M as (instance, concept) pairs, FEC as a
  // uint64 bitset, and the two reverse indexes as CSR.
  kMappingPairs = 14,
  kFlaggedBits = 15,
  kConceptInstanceOffsets = 16,
  kConceptInstanceValues = 17,
  kConceptContextOffsets = 18,
  kConceptContextValues = 19,
  // KB: domain ontology (TBox), instances (ABox), triples.
  kOntologyNameOffsets = 20,
  kOntologyNameBlob = 21,
  kRelationshipNameOffsets = 22,
  kRelationshipNameBlob = 23,
  kRelationshipEndpoints = 24,  ///< (domain, range) uint32 pairs
  kSubConceptPairs = 25,        ///< (child, parent) uint32 pairs
  kInstanceNameOffsets = 26,
  kInstanceNameBlob = 27,
  kInstanceConcepts = 28,  ///< ontology concept id per instance
  kTriples = 29,           ///< (subject, relationship, object) uint32 triples
  // Name index (matching/name_index.h NameIndexViews): normalized
  // surfaces as a string table, one NameEntryRecord per surface, and the
  // exact-match slot table of uint32 entry indexes.
  kNameSurfaceOffsets = 30,
  kNameSurfaceBlob = 31,
  kNameEntryRecords = 32,
  kNameExactSlots = 33,
  // Edit-distance images only (kMetaFlagExactMapper unset): the trigram
  // key slots (TrigramSlot), the postings CSR over dense trigram ids, and
  // the entries bucketed by surface length.
  kTrigramSlots = 34,
  kTrigramOffsets = 35,
  kTrigramPostings = 36,
  kNameLengthOffsets = 37,
  kNameByLength = 38,
};

/// Fixed prologue of every image.
struct ImageHeader {
  char magic[8];             ///< kImageMagic
  uint32_t version;          ///< kImageVersion
  uint32_t endian;           ///< kEndianMarker as written by the producer
  uint64_t file_size;        ///< total bytes, cross-checked against stat
  uint64_t payload_checksum; ///< FNV-1a 64 over [sizeof(ImageHeader), end)
  uint64_t directory_offset; ///< where the SectionEntry array starts
  uint32_t section_count;
  uint32_t reserved;         ///< zero
};
static_assert(sizeof(ImageHeader) == 48, "on-disk layout is frozen");
static_assert(std::is_trivially_copyable_v<ImageHeader>);

/// One directory entry; `offset`/`size` are in bytes from file start.
struct SectionEntry {
  uint32_t id;        ///< SectionId
  uint32_t reserved;  ///< zero
  uint64_t offset;
  uint64_t size;
};
static_assert(sizeof(SectionEntry) == 24, "on-disk layout is frozen");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

// FlatMeta::flags bits: the snapshot-option booleans the image
// round-trips (serve/snapshot.h SnapshotOptions).
inline constexpr uint32_t kMetaFlagUseTfidf = 1u << 0;
inline constexpr uint32_t kMetaFlagAddShortcutEdges = 1u << 1;
inline constexpr uint32_t kMetaFlagUsePathPenalty = 1u << 2;
inline constexpr uint32_t kMetaFlagUseContext = 1u << 3;
/// Reserved: the removed geometry-memo switch. Never written; older
/// images may carry it set, and readers ignore it.
inline constexpr uint32_t kMetaFlagReservedBit4 = 1u << 4;
inline constexpr uint32_t kMetaFlagDynamicRadius = 1u << 5;
inline constexpr uint32_t kMetaFlagExactMapper = 1u << 6;
/// Reserved: the removed geometry warm-up switch. Never written; older
/// images may carry it set, and readers ignore it.
inline constexpr uint32_t kMetaFlagReservedBit7 = 1u << 7;

/// The kMeta section: every count a reader needs to size-check the other
/// sections, plus the serialized snapshot options.
struct FlatMeta {
  uint64_t num_concepts;
  uint64_t num_edges;            ///< native + shortcut, one side
  uint64_t num_shortcut_edges;
  uint64_t num_synonyms;         ///< total synonym strings
  uint64_t num_contexts;
  uint64_t num_mappings;
  uint64_t num_ontology_concepts;
  uint64_t num_relationships;
  uint64_t num_subconcept_pairs;
  uint64_t num_instances;
  uint64_t num_triples;
  uint64_t unmapped_instances;
  uint64_t shortcuts_added;
  uint64_t options_fingerprint;  ///< FingerprintOptions of the knobs below
  uint64_t relax_top_k;
  double ic_smoothing;
  double generalization_weight;
  double specialization_weight;
  uint32_t root_concept;
  uint32_t relax_radius;
  uint32_t relax_max_radius;
  uint32_t max_shortcut_distance;
  uint32_t flags;  ///< kMetaFlag*
  uint32_t reserved;
};
static_assert(sizeof(FlatMeta) == 168, "on-disk layout is frozen");
static_assert(std::is_trivially_copyable_v<FlatMeta>);

}  // namespace medrelax::flat

#endif  // MEDRELAX_FLAT_FORMAT_H_
