#ifndef MEDRELAX_SERVE_SNAPSHOT_H_
#define MEDRELAX_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "medrelax/common/mutex.h"
#include "medrelax/common/result.h"
#include "medrelax/corpus/document.h"
#include "medrelax/graph/concept_dag.h"
#include "medrelax/kb/kb_query.h"
#include "medrelax/matching/matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax {

namespace flat {
class FlatImageView;
}  // namespace flat

/// Knobs of a serving snapshot build: everything the offline phase needs to
/// turn a raw (EKS, KB) pair into a query-ready bundle.
struct SnapshotOptions {
  IngestionOptions ingestion;
  SimilarityOptions similarity;
  RelaxationOptions relaxation;
  /// Term mapper bound to the snapshot's own DAG: exact match only, or the
  /// edit-distance matcher (tau = 2) the paper's EDIT configuration uses.
  bool use_exact_mapper = false;
};

/// One immutable, query-ready bundle of serving state: the customized
/// external DAG, the KB it was customized against, the ingestion artifacts
/// (Algorithm 1's C/F/M/FEC), a term mapper bound to that DAG, and a
/// configured QueryRelaxer borrowing all of the above.
///
/// Snapshots are built offline and published through a SnapshotRegistry;
/// readers hold them via std::shared_ptr, so a publish never invalidates
/// state an in-flight query is reading — the old snapshot dies when its
/// last reader drops it (RCU by shared_ptr refcount).
///
/// Thread-safe after construction: every accessor is const and the
/// underlying QueryRelaxer is safe for concurrent queries.
class Snapshot {
 public:
  /// Runs the offline phase end-to-end: moves `dag` and `kb` in, builds a
  /// name index + mapper over the snapshot's own DAG, runs Algorithm 1
  /// (customizing the DAG with shortcut edges), and configures the relaxer.
  /// `corpus` may be null (the QR-no-corpus configuration) and is only read
  /// during the build. Fails when ingestion fails (e.g. a multi-rooted DAG).
  /// MEDRELAX_BLOCKING: the whole offline phase runs inline — seconds of
  /// CPU at scale. The server never calls it: medrelax_ingest runs it
  /// offline and the server maps the image it writes.
  [[nodiscard]] static Result<std::shared_ptr<Snapshot>> Build(
      ConceptDag dag, KnowledgeBase kb, const Corpus* corpus,
      const SnapshotOptions& options) MEDRELAX_BLOCKING;

  /// Boots a snapshot from a flat image medrelax_ingest wrote: the image
  /// is mmapped read-only and validated, and the DAG, its names, the
  /// name index and the frequency table are served in place out of the
  /// mapping; only the KB and the small ingestion indexes are decoded —
  /// Algorithm 1 never reruns and no index is built. The recomputed options
  /// fingerprint must match the one stored at ingest time
  /// (InvalidArgument otherwise — the format evolved under the knobs).
  /// MEDRELAX_BLOCKING: maps and validates the whole file; O(image)
  /// checksum + bounds checks, but no corpus pass, no propagation and no
  /// copy of the borrowed structures.
  [[nodiscard]] static Result<std::shared_ptr<Snapshot>> LoadFromImage(
      const std::string& path) MEDRELAX_BLOCKING;

  /// Freezes this snapshot into a flat image at `path`, to be served
  /// later via LoadFromImage. The image replaces `path` atomically (temp
  /// file + rename), so a server still mapping the old image keeps
  /// serving its bytes until it reloads. MEDRELAX_BLOCKING: serializes
  /// every table to disk (offline ingest tool only).
  [[nodiscard]] Status WriteImage(const std::string& path) const
      MEDRELAX_BLOCKING;

  /// The publish generation stamped by SnapshotRegistry::Publish;
  /// 0 until published. Result-cache keys include this, so entries of a
  /// replaced snapshot can never answer queries against the new one.
  [[nodiscard]] uint64_t generation() const { return generation_; }

  /// Fingerprint of the options the relaxer answers under (similarity +
  /// relaxation knobs). Two snapshots built with different knobs never
  /// share cached results even within one generation.
  [[nodiscard]] uint64_t options_fingerprint() const {
    return options_fingerprint_;
  }

  [[nodiscard]] const ConceptDag& dag() const { return dag_; }
  [[nodiscard]] const KnowledgeBase& kb() const { return kb_; }
  [[nodiscard]] const IngestionResult& ingestion() const { return ingestion_; }
  [[nodiscard]] const NameIndex& name_index() const { return *index_; }
  [[nodiscard]] const MappingFunction& mapper() const { return *mapper_; }
  [[nodiscard]] const QueryRelaxer& relaxer() const { return *relaxer_; }

  /// The options this snapshot was built (or ingested) under.
  [[nodiscard]] const SnapshotOptions& options() const { return options_; }

  /// Wall-clock microseconds LoadFromImage spent mapping + rehydrating;
  /// 0 for built snapshots (Build serves tests, benches and the offline
  /// ingest tool; the server boots and reloads only from images).
  [[nodiscard]] uint64_t load_micros() const { return load_micros_; }

  /// Tag type gating the public constructor to Build (make_shared needs a
  /// public constructor; the tag keeps outside callers on the factory).
  struct BuildTag {
    explicit BuildTag() = default;
  };
  Snapshot(BuildTag, ConceptDag dag, KnowledgeBase kb);
  ~Snapshot();

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

 private:
  friend class SnapshotRegistry;

  /// The wiring Build and LoadFromImage share. Moves `dag` and `kb` into
  /// a new snapshot and binds a name index (built, or reading
  /// `index_views` when non-null) and the options' term mapper to its own
  /// DAG. Then `ingest` fills the ingestion artifacts:
  /// Algorithm 1 in Build, the image's sections in LoadFromImage. Last,
  /// the relaxer is configured and the options and their fingerprint
  /// are stamped. Fails when `ingest` fails.
  [[nodiscard]] static Result<std::shared_ptr<Snapshot>> Assemble(
      ConceptDag dag, KnowledgeBase kb, const NameIndexViews* index_views,
      const SnapshotOptions& options,
      const std::function<Result<IngestionResult>(Snapshot&)>& ingest)
      MEDRELAX_BLOCKING;

  /// Declared first so it is destroyed LAST: when the snapshot was mapped
  /// from an image, dag_, index_ and ingestion_.frequencies borrow from
  /// this mapping and must never outlive it.
  std::unique_ptr<flat::FlatImageView> image_;
  ConceptDag dag_;
  KnowledgeBase kb_;
  IngestionResult ingestion_;
  std::unique_ptr<NameIndex> index_;
  std::unique_ptr<MappingFunction> mapper_;
  std::unique_ptr<QueryRelaxer> relaxer_;
  SnapshotOptions options_;
  uint64_t options_fingerprint_ = 0;
  uint64_t generation_ = 0;
  uint64_t load_micros_ = 0;
};

/// The RCU-style publication point: readers take the current snapshot with
/// one shared-lock shared_ptr copy; a writer atomically swaps in a
/// replacement. In-flight queries keep relaxing against the snapshot they
/// grabbed; new queries see the new one.
class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// The currently published snapshot; nullptr before the first Publish.
  [[nodiscard]] std::shared_ptr<const Snapshot> Current() const
      MEDRELAX_EXCLUDES(mu_);

  /// Stamps `snapshot` with the next generation number and makes it the
  /// current snapshot. Returns the stamped generation (1, 2, ...). The
  /// previous snapshot stays alive until its last reader releases it.
  uint64_t Publish(std::shared_ptr<Snapshot> snapshot) MEDRELAX_EXCLUDES(mu_);

  /// Generation of the latest Publish; 0 when nothing is published yet.
  [[nodiscard]] uint64_t generation() const {
    return generations_.load(std::memory_order_acquire);
  }

 private:
  mutable SharedMutex mu_{"SnapshotRegistry::mu"};
  std::shared_ptr<const Snapshot> current_ MEDRELAX_GUARDED_BY(mu_);
  std::atomic<uint64_t> generations_{0};
};

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_SNAPSHOT_H_
