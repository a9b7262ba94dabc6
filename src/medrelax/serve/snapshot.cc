#include "medrelax/serve/snapshot.h"

#include <chrono>
#include <utility>

#include "medrelax/common/string_util.h"
#include "medrelax/flat/snapshot_codec.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/serve/result_cache.h"

namespace medrelax {

Snapshot::Snapshot(BuildTag, ConceptDag dag, KnowledgeBase kb)
    : dag_(std::move(dag)), kb_(std::move(kb)) {}

// Out of line: ~unique_ptr<flat::FlatImageView> needs the complete type,
// forward-declared in the header.
Snapshot::~Snapshot() = default;

Result<std::shared_ptr<Snapshot>> Snapshot::Assemble(
    ConceptDag dag, KnowledgeBase kb, const NameIndexViews* index_views,
    const SnapshotOptions& options,
    const std::function<Result<IngestionResult>(Snapshot&)>& ingest) {
  // Move the inputs in first so the index/mapper/relaxer borrow pointers
  // with the snapshot's own lifetime, not the caller's.
  auto snap = std::make_shared<Snapshot>(BuildTag{}, std::move(dag),
                                         std::move(kb));
  snap->index_ = index_views != nullptr
                     ? std::make_unique<NameIndex>(&snap->dag_, *index_views)
                     : std::make_unique<NameIndex>(
                           &snap->dag_, !options.use_exact_mapper);
  if (options.use_exact_mapper) {
    snap->mapper_ = std::make_unique<ExactMatcher>(snap->index_.get());
  } else {
    snap->mapper_ = std::make_unique<EditDistanceMatcher>(
        snap->index_.get(), EditMatcherOptions{});
  }
  Result<IngestionResult> ingestion = ingest(*snap);
  if (!ingestion.ok()) return ingestion.status();
  snap->ingestion_ = std::move(*ingestion);
  snap->relaxer_ = std::make_unique<QueryRelaxer>(
      &snap->dag_, &snap->ingestion_, snap->mapper_.get(), options.similarity,
      options.relaxation);
  snap->options_ = options;
  snap->options_fingerprint_ =
      FingerprintOptions(options.relaxation, options.similarity);
  return snap;
}

Result<std::shared_ptr<Snapshot>> Snapshot::Build(
    ConceptDag dag, KnowledgeBase kb, const Corpus* corpus,
    const SnapshotOptions& options) {
  return Assemble(std::move(dag), std::move(kb), /*index_views=*/nullptr,
                  options, [corpus, &options](Snapshot& snap) {
                    return RunIngestion(snap.kb_, snap.dag_, *snap.mapper_,
                                        corpus, options.ingestion);
                  });
}

Result<std::shared_ptr<Snapshot>> Snapshot::LoadFromImage(
    const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  MEDRELAX_ASSIGN_OR_RETURN(flat::DecodedSnapshotImage decoded,
                            flat::ReadSnapshotImage(path));

  // The knobs round-trip through the image; the fingerprint stored at
  // ingest time must survive recomputation, or this build's fingerprint
  // scheme has drifted from the producer's — cached results and cache
  // keys would silently disagree.
  SnapshotOptions options;
  options.ingestion = decoded.config.ingestion;
  options.similarity = decoded.config.similarity;
  options.relaxation = decoded.config.relaxation;
  options.use_exact_mapper = decoded.config.use_exact_mapper;
  const uint64_t recomputed =
      FingerprintOptions(options.relaxation, options.similarity);
  if (recomputed != decoded.options_fingerprint) {
    return Status::InvalidArgument(
        StrFormat("'%s': stored options fingerprint %016llx does not match"
                  " recomputed %016llx (incompatible producer)",
                  path.c_str(),
                  static_cast<unsigned long long>(decoded.options_fingerprint),
                  static_cast<unsigned long long>(recomputed)));
  }

  // Only Algorithm 1 itself is skipped: its artifacts come from the
  // image, whose mapping the snapshot keeps: the DAG, the name index and
  // the frequency table read it in place.
  auto from_image = [&decoded](Snapshot& snap) -> Result<IngestionResult> {
    snap.image_ = std::move(decoded.image);
    return std::move(decoded.ingestion);
  };
  MEDRELAX_ASSIGN_OR_RETURN(
      std::shared_ptr<Snapshot> snap,
      Assemble(std::move(decoded.dag), std::move(decoded.kb),
               &decoded.index_views, options, from_image));
  snap->load_micros_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return snap;
}

Status Snapshot::WriteImage(const std::string& path) const {
  flat::ImageSnapshotConfig config;
  config.ingestion = options_.ingestion;
  config.similarity = options_.similarity;
  config.relaxation = options_.relaxation;
  config.use_exact_mapper = options_.use_exact_mapper;
  return flat::WriteSnapshotImage(dag_, *index_, kb_, ingestion_, config,
                                  options_fingerprint_, path);
}

std::shared_ptr<const Snapshot> SnapshotRegistry::Current() const {
  ReaderLock lock(mu_);
  return current_;
}

uint64_t SnapshotRegistry::Publish(std::shared_ptr<Snapshot> snapshot) {
  const uint64_t generation =
      generations_.fetch_add(1, std::memory_order_acq_rel) + 1;
  snapshot->generation_ = generation;
  WriterLock lock(mu_);
  current_ = std::move(snapshot);
  return generation;
}

}  // namespace medrelax
