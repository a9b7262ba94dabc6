// medrelax_ingest: the offline half of the flat-image serving pipeline.
//
//   medrelax_ingest <dir> <out-image> [--exact]
//       Loads <dir>/eks.tsv + <dir>/kb.tsv (as written by
//       `medrelax_tool generate`), runs the full offline phase
//       (Algorithm 1: contexts, mappings, frequency propagation,
//       shortcut edges), then freezes the result into a flat snapshot
//       image at <out-image> (format: docs/SNAPSHOT_FORMAT.md). --exact
//       bakes the exact-match term mapper into the image (edit distance
//       otherwise). The image is the only artifact medrelax_server
//       serves: it boots with `serve --image <out-image>` or hot-swaps
//       with `RELOAD <out-image>`, and never runs the offline phase.
//
//       The image replaces <out-image> atomically (temp file + rename),
//       so the rebuild workflow is to ingest onto the path a live server
//       booted from and then send it a plain RELOAD: until then the
//       server keeps serving the old image's bytes.
//
//   medrelax_ingest info <image>
//       Prints the image's meta block (counts, options fingerprint,
//       file size) without rebuilding anything — the operator's sanity
//       check before pointing a server at it.
//
// Summary lines go to stdout (machine-greppable "ok ingest ..."), timing
// to stderr, mirroring the medrelax_server convention.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "medrelax/common/string_util.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/io/dag_io.h"
#include "medrelax/io/kb_io.h"
#include "medrelax/serve/snapshot.h"

using namespace medrelax;  // NOLINT — tool brevity

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  medrelax_ingest <dir> <out-image> [--exact]\n"
               "  medrelax_ingest info <image>\n");
  return 2;
}

int RunInfo(const std::string& path) {
  Result<std::unique_ptr<flat::FlatImageView>> image =
      flat::FlatImageView::Open(path);
  if (!image.ok()) {
    std::printf("err %s\n", image.status().ToString().c_str());
    return 1;
  }
  const flat::FlatMeta& meta = (*image)->meta();
  std::printf(
      "ok image bytes=%zu concepts=%llu edges=%llu shortcuts=%llu"
      " synonyms=%llu contexts=%llu mappings=%llu instances=%llu"
      " triples=%llu fingerprint=%016llx\n",
      (*image)->file_size(),
      static_cast<unsigned long long>(meta.num_concepts),
      static_cast<unsigned long long>(meta.num_edges),
      static_cast<unsigned long long>(meta.num_shortcut_edges),
      static_cast<unsigned long long>(meta.num_synonyms),
      static_cast<unsigned long long>(meta.num_contexts),
      static_cast<unsigned long long>(meta.num_mappings),
      static_cast<unsigned long long>(meta.num_instances),
      static_cast<unsigned long long>(meta.num_triples),
      static_cast<unsigned long long>(meta.options_fingerprint));
  return 0;
}

int RunIngest(int argc, char** argv) {
  const std::string dir = argv[1];
  const std::string out_path = argv[2];
  SnapshotOptions options;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exact") == 0) {
      options.use_exact_mapper = true;
    } else {
      return Usage();
    }
  }

  const auto t_start = std::chrono::steady_clock::now();
  Result<ConceptDag> dag = LoadDagFromFile(dir + "/eks.tsv");
  if (!dag.ok()) {
    std::fprintf(stderr, "eks load failed: %s\n",
                 dag.status().ToString().c_str());
    return 1;
  }
  Result<KnowledgeBase> kb = LoadKbFromFile(dir + "/kb.tsv");
  if (!kb.ok()) {
    std::fprintf(stderr, "kb load failed: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<Snapshot>> snapshot =
      Snapshot::Build(std::move(*dag), std::move(*kb), nullptr, options);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "offline phase failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const auto t_built = std::chrono::steady_clock::now();
  Status written = (*snapshot)->WriteImage(out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "image write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  const auto t_end = std::chrono::steady_clock::now();

  // Re-open what was just written: the summary reports the image's own
  // meta (not the in-memory state), so "ok ingest" also proves the file
  // round-trips its validation pipeline.
  Result<std::unique_ptr<flat::FlatImageView>> image =
      flat::FlatImageView::Open(out_path);
  if (!image.ok()) {
    std::fprintf(stderr, "image verify failed: %s\n",
                 image.status().ToString().c_str());
    return 1;
  }
  const flat::FlatMeta& meta = (*image)->meta();
  std::printf(
      "ok ingest concepts=%llu edges=%llu shortcuts=%llu contexts=%llu"
      " instances=%llu triples=%llu bytes=%zu\n",
      static_cast<unsigned long long>(meta.num_concepts),
      static_cast<unsigned long long>(meta.num_edges),
      static_cast<unsigned long long>(meta.num_shortcut_edges),
      static_cast<unsigned long long>(meta.num_contexts),
      static_cast<unsigned long long>(meta.num_instances),
      static_cast<unsigned long long>(meta.num_triples),
      (*image)->file_size());
  std::fprintf(
      stderr, "build=%.3fs write=%.3fs\n",
      std::chrono::duration<double>(t_built - t_start).count(),
      std::chrono::duration<double>(t_end - t_built).count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "info") == 0) {
    return RunInfo(argv[2]);
  }
  if (argc < 3) return Usage();
  return RunIngest(argc, argv);
}
