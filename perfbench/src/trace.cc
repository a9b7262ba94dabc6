// `relaxbench trace`: the in-process traced run.
//
// Replays the first N requests of the wire run's streams (the three
// connections' streams interleaved) through the library's public calls,
// with a span around each layer call, all tagged with the request's id:
//
//   request            parse + map + relax, one after the other
//     parse            serve::ParseRelaxArgs + ctx label lookup
//     map              snapshot.mapper().Map
//     relax            snapshot.relaxer().RelaxConceptWithK
//   probe.find_exact   NameIndex::FindExact on the same term
//   probe.trigram      NameIndex::CandidatesByTrigram on the same term
//                      (both on an evenly spaced sample of 128 requests)
//   service            RelaxationService Submit -> answer, replayed by
//                      three submitters like the three connections
//
// The probes run over a NameIndex the benchmark builds on the served DAG:
// they size what exact-first and the EDIT mapper's candidate step cost on
// this stream, whichever mapper the image serves with. Spans stay in
// memory and are written to --spans at the end. All timing wraps public
// calls; nothing inside the library is instrumented.

#include <atomic>
#include <fstream>
#include <mutex>
#include <thread>

#include "common.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/text/normalize.h"
#include "stream.h"
#include "subcommands.h"

namespace perfbench {
namespace {

using medrelax::ContextId;
using medrelax::Snapshot;

struct Span {
  uint32_t request = 0;
  const char* name = "";
  const char* parent = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans of the whole run, appended by any thread.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] uint64_t Now() const {
    return NanosSince(epoch_, Clock::now());
  }

  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "request\tspan\tparent\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      out << s.request << '\t' << s.name << '\t' << s.parent << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-request results of the sequential pass.
struct LayerSample {
  bool far = false;
  bool mapped = false;
  double map_us = 0;
  double relax_us = 0;
  medrelax::RelaxStats stats;
};

/// The parsed form of one request, as the server would submit it.
struct Parsed {
  bool ok = false;
  std::string term;
  ContextId context = medrelax::kNoContext;
  size_t top_k = 0;
};

Parsed Parse(const Snapshot& snap, const std::string& args) {
  Parsed p;
  medrelax::Result<medrelax::serve::RelaxLine> line =
      medrelax::serve::ParseRelaxArgs(args);
  if (!line.ok()) return p;
  if (line->has_context) {
    p.context = snap.ingestion().contexts.FindByLabel(line->context_label);
    if (p.context == medrelax::kNoContext) return p;
  }
  p.ok = true;
  p.term = line->term;
  p.top_k = static_cast<size_t>(line->top_k);
  return p;
}

double LoadImageMillis(const std::string& image,
                       std::shared_ptr<Snapshot>* out) {
  const Clock::time_point start = Clock::now();
  medrelax::Result<std::shared_ptr<Snapshot>> loaded =
      Snapshot::LoadFromImage(image);
  const double ms = static_cast<double>(NanosSince(start, Clock::now())) / 1e6;
  if (!loaded.ok()) return -1;
  *out = std::move(*loaded);
  return ms;
}

}  // namespace

int RunTrace(const Flags& flags) {
  WorkloadSpec spec;
  if (!FindWorkload(flags.Get("--workload"), &spec)) {
    std::fprintf(stderr, "unknown --workload\n");
    return 2;
  }
  const std::string image = flags.Get("--image");
  const uint64_t seed = static_cast<uint64_t>(flags.Number("--seed", 1));
  const size_t num_requests =
      static_cast<size_t>(flags.Number("--requests", 1000));
  const unsigned submitters = kConnections;
  const std::string spans_path = flags.Get("--spans");

  std::shared_ptr<Snapshot> snap;
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    const double ms = LoadImageMillis(image, &snap);
    if (ms < 0) {
      std::fprintf(stderr, "image load failed\n");
      return 1;
    }
    load_ms.push_back(ms);
  }
  const Vocabulary vocab(*snap, spec);
  if (vocab.num_names() == 0) {
    std::fprintf(stderr, "no addressable KB names in the image\n");
    return 1;
  }

  // The wire run's streams, interleaved connection by connection.
  std::vector<Request> requests;
  {
    std::vector<RequestStream> streams;
    for (unsigned c = 0; c < submitters; ++c) {
      streams.emplace_back(&vocab, spec, seed, c);
    }
    for (size_t i = 0; i < num_requests; ++i) {
      const unsigned c = static_cast<unsigned>(i % submitters);
      requests.push_back(streams[c].Next());
    }
  }

  SpanLog log;

  // The benchmark's own index over the served DAG. Its first trigram
  // lookup builds the lazy postings table; the build time is that first
  // call minus a steady-state call on the same term.
  const medrelax::NameIndex index(&snap->dag());
  double trigram_build_ms = 0;
  {
    const std::string probe = medrelax::NormalizeTerm(vocab.terms()[0]);
    std::vector<double> calls;
    for (int i = 0; i < 6; ++i) {
      const Clock::time_point start = Clock::now();
      (void)index.CandidatesByTrigram(probe, 256);
      calls.push_back(static_cast<double>(NanosSince(start, Clock::now())));
    }
    const double first = calls[0];
    calls.erase(calls.begin());
    trigram_build_ms = (first - Quantile(calls, 0.5)) / 1e6;
  }

  // Sequential pass: one span per layer call.
  constexpr size_t kProbes = 128;
  const size_t probe_every = std::max<size_t>(1, requests.size() / kProbes);
  std::vector<LayerSample> samples(requests.size());
  std::vector<double> parse_us, find_exact_us, trigram_us;
  size_t exact_resolved = 0, probed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(i);
    const std::string args = vocab.Args(requests[i]);
    LayerSample& sample = samples[i];
    sample.far = vocab.IsFar(requests[i]);

    const uint64_t t0 = log.Now();
    const Parsed parsed = Parse(*snap, args);
    const uint64_t t1 = log.Now();
    log.Add({id, "parse", "request", t0, t1});
    parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (!parsed.ok) continue;

    const std::optional<medrelax::ConceptMatch> match =
        snap->mapper().Map(parsed.term);
    const uint64_t t2 = log.Now();
    log.Add({id, "map", "request", t1, t2});
    sample.map_us = static_cast<double>(t2 - t1) / 1e3;
    uint64_t t3 = t2;
    if (match.has_value()) {
      const size_t k =
          parsed.top_k != 0 ? parsed.top_k : snap->relaxer().options().top_k;
      const medrelax::RelaxationOutcome outcome =
          snap->relaxer().RelaxConceptWithK(match->id, parsed.context, k);
      t3 = log.Now();
      log.Add({id, "relax", "request", t2, t3});
      sample.mapped = true;
      sample.relax_us = static_cast<double>(t3 - t2) / 1e3;
      sample.stats = outcome.stats;
    }
    log.Add({id, "request", "", t0, t3});

    // The probes are the cost of a vocabulary-wide trigram lookup (tens
    // of ms at 64k), so they run on an evenly spaced sample.
    if (i % probe_every != 0) continue;
    const std::string normalized = medrelax::NormalizeTerm(parsed.term);
    const uint64_t p0 = log.Now();
    const bool resolved = !index.FindExact(parsed.term).empty();
    const uint64_t p1 = log.Now();
    (void)index.CandidatesByTrigram(normalized, 256);
    const uint64_t p2 = log.Now();
    log.Add({id, "probe.find_exact", "", p0, p1});
    log.Add({id, "probe.trigram", "", p1, p2});
    find_exact_us.push_back(static_cast<double>(p1 - p0) / 1e3);
    trigram_us.push_back(static_cast<double>(p2 - p1) / 1e3);
    ++probed;
    if (resolved) ++exact_resolved;
  }

  // Service replay: the same requests through an in-process
  // RelaxationService configured like `medrelax_server --workers 2`, one
  // closed-loop submitter per connection; reload workloads also publish
  // a freshly mapped image on the same period as the wire run.
  std::shared_ptr<Snapshot> serving;
  if (LoadImageMillis(image, &serving) < 0) return 1;
  medrelax::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.cache.capacity = 1024;
  medrelax::RelaxationService service(serving, options);
  std::vector<double> service_us(requests.size(), -1);
  std::vector<char> hit(requests.size(), 0), coalesced(requests.size(), 0);
  std::atomic<bool> replaying{true};
  std::thread reloader;
  if (spec.reload_every_ms != 0) {
    reloader = std::thread([&]() {
      Clock::time_point next = Clock::now();
      while (replaying.load()) {
        next += std::chrono::milliseconds(spec.reload_every_ms);
        while (replaying.load() && Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!replaying.load()) break;
        std::shared_ptr<Snapshot> fresh;
        const double ms = LoadImageMillis(image, &fresh);
        if (ms < 0) continue;
        load_ms.push_back(ms);
        (void)service.PublishSnapshot(std::move(fresh));
      }
    });
  }
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < submitters; ++c) {
    threads.emplace_back([&, c]() {
      for (size_t i = c; i < requests.size(); i += submitters) {
        const Parsed parsed =
            Parse(*service.snapshot(), vocab.Args(requests[i]));
        if (!parsed.ok) continue;
        medrelax::RelaxRequest request;
        request.term = parsed.term;
        request.context = parsed.context;
        request.top_k = parsed.top_k;
        const uint64_t s0 = log.Now();
        medrelax::Result<medrelax::RelaxResponse> response =
            service.Submit(std::move(request)).get();
        const uint64_t s1 = log.Now();
        log.Add({static_cast<uint32_t>(i), "service", "", s0, s1});
        service_us[i] = static_cast<double>(s1 - s0) / 1e3;
        if (response.ok()) {
          hit[i] = response->cache_hit;
          coalesced[i] = response->coalesced;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  replaying.store(false);
  if (reloader.joinable()) reloader.join();
  service.Shutdown();

  // Per-layer aggregates.
  std::vector<double> map_us, relax_us, service_done, self_us;
  std::vector<double> candidate_us, scoring_us, rank_us, radius_iters;
  std::vector<double> scanned, visited_kb, visited_far;
  size_t memo_hits = 0, memo_misses = 0, answered = 0, hits = 0, merged = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const LayerSample& s = samples[i];
    map_us.push_back(s.map_us);
    if (s.mapped) {
      relax_us.push_back(s.relax_us);
      candidate_us.push_back(static_cast<double>(s.stats.candidate_ns) / 1e3);
      scoring_us.push_back(static_cast<double>(s.stats.scoring_ns) / 1e3);
      rank_us.push_back(static_cast<double>(s.stats.rank_ns) / 1e3);
      radius_iters.push_back(static_cast<double>(s.stats.radius_iterations));
      scanned.push_back(static_cast<double>(s.stats.candidates_scanned));
      (s.far ? visited_far : visited_kb)
          .push_back(static_cast<double>(s.stats.neighbors_visited));
      memo_hits += s.stats.geometry_cache_hits;
      memo_misses += s.stats.geometry_cache_misses;
    }
    if (service_us[i] < 0) continue;
    ++answered;
    hits += hit[i] ? 1 : 0;
    merged += coalesced[i] ? 1 : 0;
    service_done.push_back(service_us[i]);
    self_us.push_back(service_us[i] - s.map_us - (hit[i] ? 0 : s.relax_us));
  }
  const auto ratio = [](size_t part, size_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };

  JsonObject metrics;
  metrics.Number("matching.map_us_p50", Quantile(map_us, 0.5));
  metrics.Number("matching.map_us_p99", Quantile(map_us, 0.99));
  metrics.Number("matching.trigram_candidates_us_p50",
                 Quantile(trigram_us, 0.5));
  metrics.Number("matching.find_exact_us_p50", Quantile(find_exact_us, 0.5));
  metrics.Number("matching.exact_resolved_ratio",
                 ratio(exact_resolved, probed));
  metrics.Number("matching.trigram_build_ms", trigram_build_ms);
  metrics.Number("protocol.parse_us_p50", Quantile(parse_us, 0.5));
  metrics.Number("relax.relax_us_p50", Quantile(relax_us, 0.5));
  metrics.Number("relax.relax_us_p99", Quantile(relax_us, 0.99));
  metrics.Number("relax.candidate_us_mean", Mean(candidate_us));
  metrics.Number("relax.scoring_us_mean", Mean(scoring_us));
  metrics.Number("relax.rank_us_mean", Mean(rank_us));
  metrics.Number("relax.radius_iterations_mean", Mean(radius_iters));
  metrics.Number("relax.candidates_scanned_mean", Mean(scanned));
  metrics.Number("graph.neighbors_visited_mean_kb", Mean(visited_kb));
  metrics.Number("graph.neighbors_visited_mean_far", Mean(visited_far));
  metrics.Number("relax.geometry_memo_hit_ratio",
                 ratio(memo_hits, memo_hits + memo_misses));
  metrics.Number("serve.service_us_p50", Quantile(service_done, 0.5));
  metrics.Number("serve.service_us_p99", Quantile(service_done, 0.99));
  metrics.Number("serve.self_us_p50", Quantile(self_us, 0.5));
  metrics.Number("serve.cache_hit_ratio", ratio(hits, answered));
  metrics.Number("serve.coalesced_ratio", ratio(merged, answered));
  metrics.Number("flat.load_image_ms", Quantile(load_ms, 0.5));

  JsonObject out;
  out.Number("requests", static_cast<double>(requests.size()));
  out.Number("far_requests", static_cast<double>(visited_far.size()));
  out.Object("metrics", metrics);
  if (!spans_path.empty() && !log.Write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench
