// serving_quickstart: the serve/ subsystem end to end, in-process.
//
// Builds a generated world into a Snapshot, stands up a RelaxationService
// (a synchronous call over a result cache), serves the same query twice to
// show the cache hit, hot-swaps a freshly ingested snapshot while the
// service is live, and prints the stats block. See docs/SERVING.md for the
// full semantics; tools/medrelax_server.cc is the stdin/stdout front end.

#include <cstdio>
#include <memory>
#include <utility>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/serve/relaxation_service.h"

using namespace medrelax;  // NOLINT — example brevity

namespace {

Result<std::shared_ptr<Snapshot>> BuildWorldSnapshot(uint64_t seed) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 2000;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = 120;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  if (!world.ok()) return world.status();
  return Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                         nullptr, SnapshotOptions{});
}

void Report(const char* label, const Result<RelaxResponse>& response) {
  if (!response.ok()) {
    std::printf("%-28s -> %s\n", label, response.status().ToString().c_str());
    return;
  }
  std::printf("%-28s -> gen=%llu hit=%d concepts=%zu instances=%zu\n", label,
              static_cast<unsigned long long>(response->snapshot->generation()),
              response->cache_hit ? 1 : 0, response->outcome->concepts.size(),
              response->outcome->instances.size());
}

}  // namespace

int main() {
  Result<std::shared_ptr<Snapshot>> snapshot = BuildWorldSnapshot(/*seed=*/7);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot build failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  // Pick a KB-backed term so the EDIT mapper resolves it exactly.
  const Snapshot& snap = **snapshot;
  const std::string term =
      snap.kb().instances.instance(snap.ingestion().mappings.front().first)
          .name;

  ServiceOptions options;
  options.cache.capacity = 256;
  RelaxationService service(std::move(*snapshot), options);

  RelaxRequest request;
  request.term = term;
  Report("first query (cold)", service.Relax(request));
  Report("same query (cached)", service.Relax(request));

  // Re-run the offline phase and publish, with the service still live;
  // the new generation makes every cached answer unreachable.
  Result<std::shared_ptr<Snapshot>> replacement = BuildWorldSnapshot(7);
  if (replacement.ok()) {
    uint64_t generation = service.PublishSnapshot(std::move(*replacement));
    std::printf("hot-swapped snapshot         -> gen=%llu\n",
                static_cast<unsigned long long>(generation));
  }
  Report("same query after swap", service.Relax(request));

  std::printf("\nstats:\n%s", service.Stats().ToString().c_str());
  return 0;
}
