#ifndef MEDRELAX_FLAT_SNAPSHOT_CODEC_H_
#define MEDRELAX_FLAT_SNAPSHOT_CODEC_H_

#include <memory>
#include <string>

#include "medrelax/common/result.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/kb/kb_query.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"
#include "medrelax/relax/similarity.h"

namespace medrelax::flat {

/// The snapshot-build knobs an image round-trips, mirrored here so flat/
/// stays below serve/ in the layering (serve/snapshot.cc converts to and
/// from its SnapshotOptions, which aggregates the same fields).
struct ImageSnapshotConfig {
  IngestionOptions ingestion;
  SimilarityOptions similarity;
  RelaxationOptions relaxation;
  bool use_exact_mapper = false;
};

/// Serializes the offline phase's output — the customized DAG, its name
/// index, the KB, and Algorithm 1's artifacts — into a flat image at
/// `path`. The index's fuzzy tables are written only for an
/// edit-distance configuration (`config.use_exact_mapper` false).
/// `ingestion.frequencies` must be normalized (it always is after
/// RunIngestion). MEDRELAX_BLOCKING: serializes megabytes to disk; runs
/// in the offline ingest tool, never on a serving thread.
[[nodiscard]] Status WriteSnapshotImage(const ConceptDag& dag,
                                        const NameIndex& index,
                                        const KnowledgeBase& kb,
                                        const IngestionResult& ingestion,
                                        const ImageSnapshotConfig& config,
                                        uint64_t options_fingerprint,
                                        const std::string& path)
    MEDRELAX_BLOCKING;

/// A mapped image and what the serving snapshot reads from it. `dag`,
/// `index_views`, `ingestion.frequencies`, `ingestion.concept_instances`
/// and `ingestion.concept_contexts` borrow the mapping; the KB and the
/// rest of the ingestion artifacts are decoded copies (under 1 MiB at 64k
/// concepts). `image` is declared first so it outlives
/// every borrower during destruction; keep it that way.
struct DecodedSnapshotImage {
  std::unique_ptr<FlatImageView> image;
  ConceptDag dag;
  NameIndexViews index_views;
  KnowledgeBase kb;
  IngestionResult ingestion;
  ImageSnapshotConfig config;
  uint64_t options_fingerprint = 0;
};

/// Maps `path`, validates every structure the snapshot will borrow —
/// each edge target, the mirroring of the two edge sides, every string
/// terminator, slot entry, offset, posting and concept-indexed value —
/// and decodes the KB.
/// A corrupt or crafted image yields a typed error here, never UB at
/// lookup time. MEDRELAX_BLOCKING: maps and walks the whole image.
[[nodiscard]] Result<DecodedSnapshotImage> ReadSnapshotImage(
    const std::string& path) MEDRELAX_BLOCKING;

}  // namespace medrelax::flat

#endif  // MEDRELAX_FLAT_SNAPSHOT_CODEC_H_
