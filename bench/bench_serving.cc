// Closed-loop throughput benches for the serve/ subsystem:
//
//   * BM_ServingCold — result cache disabled: every request pays the full
//     relaxation (mapper + radius search + geometry scoring). This is the
//     pre-serving cost of the workload.
//   * BM_ServingWarm — cache enabled and pre-warmed over the query pool:
//     the steady state of a production mix dominated by repeated
//     near-identical queries. The warm/cold ratio is the headline number;
//     the serving layer targets >= 5x.
//   * BM_ServingSkewedMix — a Zipf hot set with scan-pollution bursts
//     against a cache smaller than one burst: the decayed-activity
//     policy's reason to exist. An untimed strict-LRU twin replays the
//     identical trace; hit_rate_advantage (activity minus LRU) is the
//     counter CI floors (scripts/bench_diff.py --floor).
//   * BM_ServingTermCold — BM_ServingCold with RELAX-by-term requests
//     (exact and one-typo KB instance names), so every request pays the
//     EDIT term mapping too. The counter term_vs_concept divides the
//     per-request time of the same concepts submitted by id by the
//     per-request time of the term path, both measured in one run: 1.0
//     means mapping is free, and CI floors it so the mapping cost cannot
//     quietly grow back to dominate a request.
//   * BM_TermMapping — EDIT mapping alone on a 16k/64k vocabulary:
//     one-edit typos timed, exact names in the same run. CI floors the
//     counter typo_vs_exact so the trigram filter's cost per typo stays
//     within a small factor of an exact probe.
//
// The serving benches run closed-loop batches of RelaxationService::Relax
// calls, the synchronous call each of medrelax_server's event loops makes
// per RELAX line. The arg is the number of threads calling it
// concurrently (the server's --workers), each taking every n-th request
// of the batch, so wall time is the meaningful axis: UseRealTime().
// Pre-1.8 google-benchmark binary — pass plain-double
// --benchmark_min_time=0.05 and filter with
// --benchmark_filter='BM_Serving(Cold|Warm)/...'.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "medrelax/common/string_util.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/snomed_generator.h"
#include "medrelax/flat/image_view.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/result_cache.h"
#include "medrelax/text/normalize.h"

using namespace medrelax;  // NOLINT — bench brevity

namespace {

constexpr size_t kBatch = 64;       // requests in flight per iteration
constexpr size_t kPoolSize = 16;    // distinct queries cycled through

// One snapshot shared by every bench registration (1-core box: the
// offline build dominates startup, pay it once).
std::shared_ptr<Snapshot>& SharedSnapshot() {
  static std::shared_ptr<Snapshot> snapshot = [] {
    SnomedGeneratorOptions eks;
    eks.num_concepts = 2000;
    eks.seed = 2026;
    KbGeneratorOptions kb;
    kb.num_drugs = 80;
    kb.num_findings = 120;
    kb.seed = 2027;
    Result<GeneratedWorld> world = GenerateWorld(eks, kb);
    if (!world.ok()) return std::shared_ptr<Snapshot>{};
    Result<std::shared_ptr<Snapshot>> built =
        Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                        nullptr, SnapshotOptions{});
    if (!built.ok()) return std::shared_ptr<Snapshot>{};
    return *built;
  }();
  return snapshot;
}

std::vector<ConceptId> QueryPool(const Snapshot& snap) {
  std::vector<ConceptId> pool;
  const std::vector<bool>& flagged = snap.ingestion().flagged;
  for (ConceptId id = 0; id < flagged.size() && pool.size() < kPoolSize;
       ++id) {
    if (flagged[id]) pool.push_back(id);
  }
  return pool;
}

// Serves one closed-loop batch, split over `callers` threads calling
// Relax concurrently, and returns once every answer landed.
void ServeBatch(RelaxationService& service,
                const std::vector<RelaxRequest>& pool, size_t offset,
                size_t callers) {
  auto serve = [&](size_t first) {
    for (size_t i = first; i < kBatch; i += callers) {
      Result<RelaxResponse> response =
          service.Relax(pool[(offset + i) % pool.size()]);
      benchmark::DoNotOptimize(response);
    }
  };
  std::vector<std::thread> helpers;
  for (size_t c = 1; c < callers; ++c) helpers.emplace_back(serve, c);
  serve(0);
  for (std::thread& helper : helpers) helper.join();
}

std::vector<RelaxRequest> ConceptRequests(const std::vector<ConceptId>& ids) {
  std::vector<RelaxRequest> requests(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) requests[i].concept_id = ids[i];
  return requests;
}

void RunServingBench(benchmark::State& state, bool warm_cache) {
  std::shared_ptr<Snapshot> snap = SharedSnapshot();
  if (snap == nullptr) {
    state.SkipWithError("snapshot build failed");
    return;
  }
  const std::vector<RelaxRequest> pool = ConceptRequests(QueryPool(*snap));
  if (pool.empty()) {
    state.SkipWithError("no flagged query pool");
    return;
  }

  const auto callers = static_cast<size_t>(state.range(0));
  ServiceOptions options;
  options.cache.capacity = warm_cache ? 4096 : 0;
  RelaxationService service(snap, options);
  if (warm_cache) ServeBatch(service, pool, 0, 1);  // populate every key

  size_t offset = 0;
  for (auto _ : state) {
    ServeBatch(service, pool, offset, callers);
    offset += kBatch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.SetLabel(warm_cache ? "cache=warm" : "cache=off");
}

void BM_ServingCold(benchmark::State& state) {
  RunServingBench(state, /*warm_cache=*/false);
}
BENCHMARK(BM_ServingCold)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServingWarm(benchmark::State& state) {
  RunServingBench(state, /*warm_cache=*/true);
}
BENCHMARK(BM_ServingWarm)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Term-path bench ------------------------------------------------------
//
// The requests a user sends: KB instance names, half of them with one
// typo. Each typo deletes the middle character of a name the snapshot
// mapped at ingest, and is kept only if it still maps, so both halves
// exercise EDIT (FindExact first, then the sound candidate filter). The
// concept path submits exactly the concepts the terms map to.

struct TermPool {
  std::vector<RelaxRequest> terms;
  std::vector<RelaxRequest> concepts;  // the same requests by concept id
};

TermPool MakeTermPool(const Snapshot& snap) {
  TermPool pool;
  const auto add = [&](std::string term) {
    std::optional<ConceptMatch> match = snap.mapper().Map(term);
    if (!match.has_value()) return;
    RelaxRequest by_term;
    by_term.term = std::move(term);
    pool.terms.push_back(std::move(by_term));
    RelaxRequest by_id;
    by_id.concept_id = match->id;
    pool.concepts.push_back(by_id);
  };
  std::vector<ConceptId> seen;
  for (const auto& [instance, concept_id] : snap.ingestion().mappings) {
    if (pool.terms.size() >= 2 * kPoolSize) break;
    if (std::find(seen.begin(), seen.end(), concept_id) != seen.end()) {
      continue;
    }
    seen.push_back(concept_id);
    const std::string name =
        NormalizeTerm(snap.kb().instances.instance(instance).name);
    if (name.size() < 4) continue;
    add(name);
    std::string typo = name;
    typo.erase(typo.size() / 2, 1);
    add(std::move(typo));
  }
  return pool;
}

void BM_ServingTermCold(benchmark::State& state) {
  std::shared_ptr<Snapshot> snap = SharedSnapshot();
  if (snap == nullptr) {
    state.SkipWithError("snapshot build failed");
    return;
  }
  const TermPool pool = MakeTermPool(*snap);
  if (pool.terms.empty()) {
    state.SkipWithError("no mapped instance names");
    return;
  }

  const auto callers = static_cast<size_t>(state.range(0));
  ServiceOptions options;
  options.cache.capacity = 0;
  RelaxationService service(snap, options);

  using Clock = std::chrono::steady_clock;
  size_t batches = 0;
  const Clock::time_point term_start = Clock::now();
  for (auto _ : state) {
    ServeBatch(service, pool.terms, batches * kBatch, callers);
    ++batches;
  }
  const Clock::duration term_time = Clock::now() - term_start;
  // The same number of batches over the same concepts, by id, off the
  // benchmark clock.
  const Clock::time_point concept_start = Clock::now();
  for (size_t b = 0; b < batches; ++b) {
    ServeBatch(service, pool.concepts, b * kBatch, callers);
  }
  const Clock::duration concept_time = Clock::now() - concept_start;

  state.SetItemsProcessed(static_cast<int64_t>(batches * kBatch));
  state.counters["term_vs_concept"] =
      term_time.count() > 0 ? static_cast<double>(concept_time.count()) /
                                  static_cast<double>(term_time.count())
                            : 0.0;
  state.SetLabel("cache=off terms=exact+typo");
}
BENCHMARK(BM_ServingTermCold)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Term-mapping bench ---------------------------------------------------
//
// EDIT mapping alone, on a vocabulary the size of a served image, with no
// Snapshot build. The 2k serving snapshot above hides how long the
// postings of common trigrams grow; here they are as long as at 16k/64k.
// The sample is canonical names of 9 or more characters (long enough
// that a typo takes the trigram filter rather than the length window)
// from the finding region, which is where the KB generator draws the
// instance names a RELAX by term carries; the rest of the vocabulary is
// "<procedure> of <site> variant N" filler that no instance is named
// after. The benchmark loop maps their one-edit typos (the middle
// character deleted, kept only when it misses FindExact); the same
// number of exact names is mapped off the clock. typo_vs_exact = exact
// per-map time / typo per-map time, so it falls as the filter grows
// slower than the exact probe, whatever the machine.

struct TermMappingWorld {
  ConceptDag dag;
  std::unique_ptr<NameIndex> index;
  std::vector<std::string> exact;
  std::vector<std::string> typos;
};

std::unique_ptr<TermMappingWorld> MakeTermMappingWorld(size_t num_concepts) {
  SnomedGeneratorOptions options;
  options.num_concepts = num_concepts;
  options.seed = 7;
  Result<GeneratedEks> eks = GenerateSnomedLike(options);
  if (!eks.ok()) return nullptr;
  auto world = std::make_unique<TermMappingWorld>();
  world->dag = std::move(eks->dag);
  world->index = std::make_unique<NameIndex>(&world->dag);
  constexpr size_t kSample = 64;
  const std::vector<ConceptId>& findings = eks->finding_concepts;
  const size_t stride = std::max<size_t>(1, findings.size() / (2 * kSample));
  for (size_t i = 0; i < findings.size() && world->typos.size() < kSample;
       i += stride) {
    std::string name = NormalizeTerm(world->dag.name(findings[i]));
    if (name.size() < 9) continue;
    std::string typo = name;
    typo.erase(typo.size() / 2, 1);
    if (!world->index->FindExact(typo).empty()) continue;
    world->exact.push_back(std::move(name));
    world->typos.push_back(std::move(typo));
  }
  return world;
}

void BM_TermMapping(benchmark::State& state) {
  // Built once per size: the framework re-enters this function while it
  // sizes the iteration count.
  static std::map<size_t, std::unique_ptr<TermMappingWorld>> worlds;
  std::unique_ptr<TermMappingWorld>& world =
      worlds[static_cast<size_t>(state.range(0))];
  if (world == nullptr) {
    world = MakeTermMappingWorld(static_cast<size_t>(state.range(0)));
  }
  if (world == nullptr || world->typos.empty()) {
    state.SkipWithError("no term sample");
    return;
  }
  const EditDistanceMatcher matcher(world->index.get(), EditMatcherOptions{});
  // The first fuzzy lookup builds the trigram postings; keep it off both
  // clocks.
  benchmark::DoNotOptimize(matcher.Map(world->typos.front()));

  using Clock = std::chrono::steady_clock;
  size_t maps = 0;
  const Clock::time_point typo_start = Clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.Map(world->typos[maps % world->typos.size()]));
    ++maps;
  }
  const Clock::duration typo_time = Clock::now() - typo_start;
  const Clock::time_point exact_start = Clock::now();
  for (size_t i = 0; i < maps; ++i) {
    benchmark::DoNotOptimize(
        matcher.Map(world->exact[i % world->exact.size()]));
  }
  const Clock::duration exact_time = Clock::now() - exact_start;

  state.counters["typo_vs_exact"] =
      typo_time.count() > 0 ? static_cast<double>(exact_time.count()) /
                                  static_cast<double>(typo_time.count())
                            : 0.0;
  state.SetLabel(StrFormat("entries=%zu terms=%zu",
                           world->index->entries().size(),
                           world->typos.size()));
}
BENCHMARK(BM_TermMapping)->Arg(16000)->Arg(64000)->Unit(
    benchmark::kMicrosecond);

// ---- Skewed-mix cache-policy benches -------------------------------------
//
// The workload the activity policy is built for: a Zipf(1.1)-popular hot
// set alternating with scan-pollution bursts as large as the whole
// cache. Strict LRU lets every burst flush the hot set; decayed activity
// plus the second-hit admission doorkeeper keeps it resident. The bench
// times the activity side only and replays the identical trace through
// an untimed strict-LRU twin, reporting
//   hit_rate           — the timed activity cache
//   hit_rate_lru       — the LRU twin on the same trace
//   hit_rate_advantage — activity minus LRU; CI floors this above zero
// so a regression back toward recency-only eviction fails the gate.

constexpr size_t kSkewCacheCapacity = 32;  // one scan burst == capacity
constexpr size_t kSkewHotKeys = 16;
constexpr double kSkewZipfTheta = 1.1;
constexpr size_t kSkewTraceLen = 2048;

// One trace slot: a Zipf-ranked hot key, or the serial number of a
// scan-pollution key (minted into distinct cache keys by the bench).
struct SkewSlot {
  bool scan = false;
  size_t index = 0;  // hot rank, or scan serial
};

// Alternating blocks: kSkewCacheCapacity Zipf-hot draws, then a
// kSkewCacheCapacity-request scan burst — each burst large enough to
// evict every resident entry under strict LRU. Seeded, so every run (and
// the LRU twin replay) sees the same sequence.
std::vector<SkewSlot> SkewedMixSlots() {
  std::vector<double> cdf(kSkewHotKeys);
  double total = 0;
  for (size_t r = 0; r < kSkewHotKeys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kSkewZipfTheta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  std::mt19937_64 rng(2028);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<SkewSlot> trace;
  trace.reserve(kSkewTraceLen);
  size_t scan_serial = 0;
  while (trace.size() < kSkewTraceLen) {
    for (size_t i = 0; i < kSkewCacheCapacity && trace.size() < kSkewTraceLen;
         ++i) {
      const size_t rank = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin());
      trace.push_back({false, std::min(rank, kSkewHotKeys - 1)});
    }
    for (size_t i = 0; i < kSkewCacheCapacity && trace.size() < kSkewTraceLen;
         ++i) {
      trace.push_back({true, scan_serial++});
    }
  }
  return trace;
}

void BM_ServingSkewedMix(benchmark::State& state) {
  std::shared_ptr<Snapshot> snap = SharedSnapshot();
  if (snap == nullptr) {
    state.SkipWithError("snapshot build failed");
    return;
  }
  // Hot pool and a disjoint scan pool of flagged concepts; scan keys are
  // minted distinct as (concept, top_k) combinations, so they recur only
  // every |scan| * 8 scans — far beyond the cache's lifetime.
  std::vector<ConceptId> flagged;
  const std::vector<bool>& mask = snap->ingestion().flagged;
  for (ConceptId id = 0; id < mask.size() && flagged.size() < kSkewHotKeys + 64;
       ++id) {
    if (mask[id]) flagged.push_back(id);
  }
  if (flagged.size() < kSkewHotKeys + 8) {
    state.SkipWithError("not enough flagged concepts");
    return;
  }
  const std::vector<ConceptId> hot(flagged.begin(),
                                   flagged.begin() + kSkewHotKeys);
  const std::vector<ConceptId> scan(flagged.begin() + kSkewHotKeys,
                                    flagged.end());
  const std::vector<SkewSlot> trace = SkewedMixSlots();
  const auto request_for = [&](const SkewSlot& slot) {
    RelaxRequest request;
    if (slot.scan) {
      request.concept_id = scan[slot.index % scan.size()];
      request.top_k = 1 + (slot.index / scan.size()) % 8;
    } else {
      request.concept_id = hot[slot.index];
    }
    return request;
  };

  ServiceOptions options;
  options.cache.capacity = kSkewCacheCapacity;
  options.cache.num_shards = 1;  // one ranked pool, same shape as the twin
  RelaxationService service(snap, options);

  // One caller, so the service sees the trace in the twin's order.
  size_t offset = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kBatch; ++i) {
      Result<RelaxResponse> response =
          service.Relax(request_for(trace[(offset + i) % trace.size()]));
      benchmark::DoNotOptimize(response);
    }
    offset += kBatch;
  }

  // Untimed strict-LRU twin over the identical key sequence. Only the
  // eviction decisions matter, so misses insert a shared dummy outcome;
  // top_k is resolved to the snapshot default exactly like the service
  // keys its cache.
  ResultCacheOptions lru;
  lru.capacity = kSkewCacheCapacity;
  lru.num_shards = 1;
  lru.policy.eviction = CachePolicy::Eviction::kLru;
  ResultCache twin(lru);
  const std::shared_ptr<const RelaxationOutcome> dummy =
      std::make_shared<RelaxationOutcome>();
  const uint64_t default_k = snap->relaxer().options().top_k;
  for (size_t i = 0; i < offset; ++i) {
    const RelaxRequest request = request_for(trace[i % trace.size()]);
    const CacheKey key{request.concept_id, kNoContext,
                       request.top_k != 0 ? request.top_k : default_k,
                       /*options_fingerprint=*/0, /*generation=*/1};
    if (twin.Lookup(key) == nullptr) twin.Insert(key, dummy);
  }

  const ServiceStatsSnapshot stats = service.Stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  const double completed =
      stats.completed > 0 ? static_cast<double>(stats.completed) : 1.0;
  const double twin_total =
      static_cast<double>(twin.hits() + twin.misses());
  const double hit_rate = static_cast<double>(stats.cache_hits) / completed;
  const double hit_rate_lru =
      twin_total > 0 ? static_cast<double>(twin.hits()) / twin_total : 0.0;
  state.counters["hit_rate"] = hit_rate;
  state.counters["hit_rate_lru"] = hit_rate_lru;
  state.counters["hit_rate_advantage"] = hit_rate - hit_rate_lru;
  state.counters["admission_rejects"] =
      static_cast<double>(service.cache().admission_rejects());
  state.counters["sweeps_completed"] =
      static_cast<double>(service.cache().sweeps_completed());
  state.SetLabel("mix=zipf+scan");
}
BENCHMARK(BM_ServingSkewedMix)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Offline-image pipeline headline: BM_SnapshotBuild is the full offline
// phase (Algorithm 1 + mapper + relaxer wiring) on a 64k-concept world;
// BM_SnapshotLoadImage boots the identical serving state from the flat
// image medrelax_ingest freezes, and BM_ImageOpenValidate only maps the
// image and checks its checksum and directory, the floor under any load.
// BM_SnapshotLoadImage's counter load_vs_validate divides the
// open-and-validate time by the full load time, medians of one
// interleaved run: 1.0 would mean a load costs nothing past the
// checksum. CI floors it, so decoded copies cannot creep back into the
// load path.

Result<GeneratedWorld> BigWorld() {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 65536;
  eks.seed = 2026;
  KbGeneratorOptions kb;
  kb.num_drugs = 120;
  kb.num_findings = 400;
  kb.seed = 2027;
  return GenerateWorld(eks, kb);
}

// The 64k-concept image, ingested once per bench process. Empty on
// failure.
const std::string& BigImagePath() {
  static const std::string path = []() -> std::string {
    Result<GeneratedWorld> world = BigWorld();
    if (!world.ok()) return {};
    Result<std::shared_ptr<Snapshot>> built =
        Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                        nullptr, SnapshotOptions{});
    if (!built.ok()) return {};
    const char* tmp = std::getenv("TMPDIR");
    std::string candidate = std::string(tmp != nullptr ? tmp : "/tmp") +
                            "/medrelax_bench_snapshot.img";
    if (!(*built)->WriteImage(candidate).ok()) return {};
    return candidate;
  }();
  return path;
}

void BM_SnapshotBuild(benchmark::State& state) {
  for (auto _ : state) {
    // World generation happens off the clock: the bench measures the
    // offline phase, not the synthetic data generator.
    state.PauseTiming();
    Result<GeneratedWorld> world = BigWorld();
    if (!world.ok()) {
      state.SkipWithError("world generation failed");
      return;
    }
    state.ResumeTiming();
    Result<std::shared_ptr<Snapshot>> built =
        Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                        nullptr, SnapshotOptions{});
    benchmark::DoNotOptimize(built);
    if (!built.ok()) {
      state.SkipWithError("snapshot build failed");
      return;
    }
  }
  state.SetLabel("concepts=64k");
}
BENCHMARK(BM_SnapshotBuild)->Unit(benchmark::kMillisecond);

void BM_ImageOpenValidate(benchmark::State& state) {
  const std::string& path = BigImagePath();
  if (path.empty()) {
    state.SkipWithError("image ingest failed");
    return;
  }
  for (auto _ : state) {
    Result<std::unique_ptr<flat::FlatImageView>> image =
        flat::FlatImageView::Open(path);
    benchmark::DoNotOptimize(image);
    if (!image.ok()) {
      state.SkipWithError("image open failed");
      return;
    }
  }
  state.SetLabel("concepts=64k");
}
BENCHMARK(BM_ImageOpenValidate)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoadImage(benchmark::State& state) {
  const std::string& path = BigImagePath();
  if (path.empty()) {
    state.SkipWithError("image ingest failed");
    return;
  }
  using Clock = std::chrono::steady_clock;
  std::vector<double> open_ns;
  std::vector<double> load_ns;
  for (auto _ : state) {
    // The open-and-validate twin runs off the bench clock, interleaved
    // with the timed loads so both see the same machine state.
    state.PauseTiming();
    const Clock::time_point open_start = Clock::now();
    {
      Result<std::unique_ptr<flat::FlatImageView>> image =
          flat::FlatImageView::Open(path);
      benchmark::DoNotOptimize(image);
    }
    open_ns.push_back(
        static_cast<double>((Clock::now() - open_start).count()));
    state.ResumeTiming();
    const Clock::time_point load_start = Clock::now();
    Result<std::shared_ptr<Snapshot>> mapped = Snapshot::LoadFromImage(path);
    benchmark::DoNotOptimize(mapped);
    load_ns.push_back(
        static_cast<double>((Clock::now() - load_start).count()));
    if (!mapped.ok()) {
      state.SkipWithError("image load failed");
      return;
    }
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double load = median(load_ns);
  state.counters["load_vs_validate"] = load > 0 ? median(open_ns) / load : 0;
  state.SetLabel("concepts=64k");
}
BENCHMARK(BM_SnapshotLoadImage)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
