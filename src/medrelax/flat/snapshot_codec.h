#ifndef MEDRELAX_FLAT_SNAPSHOT_CODEC_H_
#define MEDRELAX_FLAT_SNAPSHOT_CODEC_H_

#include <memory>
#include <string>

#include "medrelax/common/result.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/kb/kb_query.h"
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

/// Serializes the offline phase's output — the customized DAG, the KB,
/// and Algorithm 1's artifacts — into a flat image at `path`.
/// `ingestion.frequencies` must be normalized (it always is after
/// RunIngestion). MEDRELAX_BLOCKING: serializes megabytes to disk; runs
/// in the offline ingest tool, never on a serving thread.
[[nodiscard]] Status WriteSnapshotImage(const ConceptDag& dag,
                                        const KnowledgeBase& kb,
                                        const IngestionResult& ingestion,
                                        const ImageSnapshotConfig& config,
                                        uint64_t options_fingerprint,
                                        const std::string& path)
    MEDRELAX_BLOCKING;

/// The decoded halves of an image: rehydrated structures plus the view
/// whose mapping `ingestion.frequencies` borrows its normalized table
/// from. `image` is declared first so it outlives every borrower during
/// destruction; keep it that way.
struct DecodedSnapshotImage {
  std::unique_ptr<FlatImageView> image;
  ConceptDag dag;
  KnowledgeBase kb;
  IngestionResult ingestion;
  ImageSnapshotConfig config;
  uint64_t options_fingerprint = 0;
};

/// Maps `path` and rebuilds the serving structures: the DAG, synonyms,
/// and KB are rehydrated (bulk restore, no per-edge duplicate scans);
/// the dominant payload — the normalized frequency table — is served
/// zero-copy straight out of the mapping. Every id crossing a structure
/// boundary is validated against the meta counts first, so a corrupt
/// image yields a typed error, never UB. MEDRELAX_BLOCKING: maps and
/// walks the whole image.
[[nodiscard]] Result<DecodedSnapshotImage> ReadSnapshotImage(
    const std::string& path) MEDRELAX_BLOCKING;

}  // namespace medrelax::flat

#endif  // MEDRELAX_FLAT_SNAPSHOT_CODEC_H_
