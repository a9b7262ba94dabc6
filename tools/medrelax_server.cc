// medrelax_server: the long-lived serving front end over medrelax/serve.
//
//   medrelax_server serve --image FILE [--workers N] [--queue N]
//                         [--cache N] [--cache-policy lru|activity]
//                         [--deadline-ms D] [--batch N] [--listen PORT]
//                         [--max-conns N] [--max-line N]
//       Maps FILE, a flat snapshot image frozen by medrelax_ingest
//       (docs/SNAPSHOT_FORMAT.md), read-only and serves it zero-copy: the
//       offline phase (Algorithm 1) never runs here, and the term mapper
//       is the one baked into the image at ingest. Answers a
//       newline-delimited text protocol (grammar in docs/SERVING.md):
//
//         RELAX [k=N] [ctx=LABEL] <term...>   relax a [term, context] pair
//         CONTEXTS                            list context labels
//         GEN                                 current snapshot generation
//         RELOAD [path]                       hot-swap: map `path` (a flat
//                                             image) when given, else
//                                             re-map the boot image
//         STATS                               deterministic counter block
//         QUIT                                end the session (EOF too)
//
//       To rebuild, run medrelax_ingest onto the boot image's path and
//       send a plain RELOAD: the ingest replaces the file atomically, so
//       the old mapping keeps serving until the new one is published.
//       `RELOAD <path>` makes <path> the image later plain RELOADs map.
//
//       Without --listen the session is stdin/stdout: one client, zero
//       dependencies, the CI smoke surface. With --listen PORT the same
//       protocol is served to many concurrent sessions over TCP on
//       127.0.0.1:PORT (PORT 0 = ephemeral; the chosen port is printed
//       as "ok listening port=N" on stdout). One epoll thread owns all
//       sockets; RELAX answers are computed by the service workers, and
//       RELOADs map their image on a dedicated reload thread (other
//       sessions keep answering meanwhile); both deliver their replies
//       back to the owning connection through the loop's wakeup queue,
//       so the same scripted session yields byte-identical transcripts
//       over both transports (scripts/server_smoke.sh diffs exactly
//       that).
//
//       Lines starting with '#' and blank lines are ignored, so a
//       scripted session file can be commented.
//
//       Every flag takes one value and may appear once. An unknown or
//       repeated flag, a stray positional argument, a missing --image, a
//       malformed or out-of-range number (a port over 65535, more than
//       1024 workers), or --workers 0 with --listen exits 2 with the
//       reason on stderr before anything is loaded.
//
// For load over TCP, see medrelax_client load.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "medrelax/common/mutex.h"
#include "medrelax/common/string_util.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/net/event_loop.h"
#include "medrelax/net/line_server.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relax_reply.h"
#include "medrelax/serve/relaxation_service.h"
#include "flags.h"

using namespace medrelax;  // NOLINT — tool brevity

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  medrelax_server serve --image FILE [--workers N] [--queue N]"
      " [--cache N] [--cache-policy lru|activity]\n"
      "                       [--deadline-ms D] [--batch N]"
      " [--listen PORT] [--max-conns N] [--max-line BYTES]\n"
      "      (FILE is a snapshot image written by medrelax_ingest)\n");
  return 2;
}

using tools::CountFlags;
using tools::FlagValue;

/// Upper bound of --workers: each worker is a thread, and a mistyped
/// count must fail at startup rather than in thread creation.
constexpr uint64_t kMaxWorkers = 1024;

/// Reports a bad numeric flag (see tools::CountFlags) and returns the
/// usage exit code; 0 when every flag parsed.
int RejectBadFlags(const CountFlags& flags) {
  if (flags.status().ok()) return 0;
  std::fprintf(stderr, "medrelax_server: %s\n",
               flags.status().ToString().c_str());
  return 2;
}

/// The flags `serve` accepts, each followed by exactly one value.
constexpr const char* kServeFlags[] = {
    "--image",       "--workers", "--queue",  "--cache",     "--cache-policy",
    "--deadline-ms", "--batch",   "--listen", "--max-conns", "--max-line"};

/// Checks that argv[2..] is a run of distinct, known `--flag value`
/// pairs. An ignored typo (`--worker 4`), a stray positional or a
/// repeated flag (only its first value would count) would otherwise
/// start a server with settings the operator did not ask for. Returns
/// the usage exit code, naming the offending argument, or 0.
int RejectUnknownArgs(int argc, char** argv) {
  for (int i = 2; i < argc; i += 2) {
    auto same = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const char* problem = nullptr;
    if (std::none_of(std::begin(kServeFlags), std::end(kServeFlags), same)) {
      problem = "unexpected";
    } else if (i + 1 == argc) {
      problem = "missing value for";
    } else {
      for (int j = 2; j < i; j += 2) {
        if (same(argv[j])) problem = "repeated";
      }
    }
    if (problem != nullptr) {
      std::fprintf(stderr, "medrelax_server: %s argument '%s'\n", problem,
                   argv[i]);
      return Usage();
    }
  }
  return 0;
}

/// Everything a session (stdin or one TCP connection) needs to answer
/// protocol verbs. One per server process. `image_path` is the flat
/// image a plain RELOAD maps: the boot image, or the last image an
/// explicit `RELOAD <path>` published. Only the reload path (one thread
/// at a time — the stdio session or the single ReloadExecutor worker)
/// touches it after setup.
struct ServerState {
  RelaxationService& service;
  std::string image_path;
};

/// Runs one RELOAD end-to-end and renders the protocol reply: maps
/// `image_arg` (RELOAD <path>) or, when it is empty, the current
/// `state.image_path`, and publishes it. A failed reload replies a typed
/// err and leaves the current generation serving untouched. Both
/// transports produce their RELOAD replies through this one function, so
/// the transcripts cannot drift. MEDRELAX_BLOCKING: mapping a large image
/// takes a few hundred ms; the TCP transport runs it on the
/// ReloadExecutor thread, never on the event loop.
std::string DoReload(ServerState& state,
                     const std::string& image_arg) MEDRELAX_BLOCKING {
  // Test hook: scripts/server_smoke.sh stretches the reload window to
  // prove other sessions keep answering while a RELOAD is in flight.
  if (const char* delay_ms = std::getenv("MEDRELAX_RELOAD_TEST_DELAY_MS")) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::strtoul(delay_ms, nullptr, 10)));
  }
  Result<std::shared_ptr<Snapshot>> reloaded = Snapshot::LoadFromImage(
      image_arg.empty() ? state.image_path : image_arg);
  if (!reloaded.ok()) {
    return StrFormat("err %s\n", reloaded.status().ToString().c_str());
  }
  // A successful explicit-path reload makes that image the one later
  // plain RELOADs map (sticky, like booting with --image).
  if (!image_arg.empty()) state.image_path = image_arg;
  state.service.TransportStats().RecordImageLoad((*reloaded)->load_micros());
  const uint64_t generation =
      state.service.PublishSnapshot(std::move(*reloaded));
  state.service.TransportStats().RecordReloadCompleted();
  return StrFormat("ok reload gen=%llu\n",
                   static_cast<unsigned long long>(generation));
}

/// One dedicated worker draining RELOAD jobs, so mapping an image (a
/// few hundred ms at 64k concepts) borrows no RelaxationService worker
/// (with --workers 1 the single query worker would otherwise stall every
/// session's RELAX behind the reload) and never touches the service's
/// queue bound or counters. A deque, not a single slot: pile-up is
/// bounded by the number of paused connections, each of which can have
/// at most one RELOAD in flight.
class ReloadExecutor {
 public:
  ReloadExecutor() : worker_([this] { WorkerLoop(); }) {}

  /// Drains queued jobs, then joins. Runs after EventLoop::Run has
  /// returned (declaration order in RunTcpServer), so in-flight replies
  /// still Post() safely into the outlived-but-stopped loop.
  ~ReloadExecutor() {
    {
      MutexLock lock(mu_);
      stopped_ = true;
    }
    cv_.NotifyOne();
    if (worker_.joinable()) worker_.join();
  }

  ReloadExecutor(const ReloadExecutor&) = delete;
  ReloadExecutor& operator=(const ReloadExecutor&) = delete;

  /// Enqueues `job` for the worker. Never blocks beyond the push: safe
  /// to call from the event loop.
  void Submit(std::function<void()> job) MEDRELAX_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.NotifyOne();
  }

 private:
  void WorkerLoop() MEDRELAX_EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> job;
      {
        MutexLock lock(mu_);
        while (queue_.empty() && !stopped_) cv_.Wait(mu_);
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      // Invoked with no lock held: a job maps a whole image, and its
      // completion lambda must be free to take its own locks.
      job();
    }
  }

  Mutex mu_{"ReloadExecutor::mu"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ MEDRELAX_GUARDED_BY(mu_);
  bool stopped_ MEDRELAX_GUARDED_BY(mu_) = false;
  /// Touched only by the constructor and the destructor's join, both on
  /// the owning thread.
  std::thread worker_;  // lint:allow(guarded-by) ctor/join only
};

/// RELAX [k=N] [timeout_ms=N] [ctx=LABEL] <term...> — the grammar and
/// the overflow-checked numeric parsing live in serve/protocol.cc (the
/// fuzzed surface); this adapter only resolves the context label against
/// the live snapshot and fills the request. Returns an "err ...\n" reply
/// on failure, "" on success (with *request/*term filled in).
std::string ParseRelaxLine(RelaxationService& service, std::istringstream& in,
                           RelaxRequest* request, std::string* term) {
  std::string rest;
  std::getline(in, rest);
  Result<serve::RelaxLine> parsed = serve::ParseRelaxArgs(rest);
  if (!parsed.ok()) {
    return StrFormat("err %s\n", parsed.status().ToString().c_str());
  }
  if (parsed->has_context) {
    std::shared_ptr<const Snapshot> snap = service.snapshot();
    Result<ContextId> context =
        serve::ResolveContextLabel(snap->ingestion().contexts, &*parsed);
    if (!context.ok()) {
      return StrFormat("err %s\n", context.status().ToString().c_str());
    }
    request->context = *context;
  }
  request->top_k = static_cast<size_t>(parsed->top_k);
  if (parsed->timeout_ms != 0) {
    request->timeout = std::chrono::milliseconds(parsed->timeout_ms);
  }
  *term = parsed->term;
  request->term = *term;
  return "";
}

/// Answers the quick control verbs — everything except RELAX, RELOAD
/// and QUIT, whose handling is transport-specific. Nothing here blocks
/// (snapshot reads and counter formatting only), so the TCP transport
/// answers these inline on the event loop. Shared verbatim between the
/// stdin and TCP transports so their transcripts cannot drift apart.
std::string HandleControlVerb(ServerState& state, const std::string& verb,
                              std::istringstream& in) {
  (void)in;  // no control verb takes arguments today
  if (verb == "CONTEXTS") {
    std::shared_ptr<const Snapshot> snap = state.service.snapshot();
    const ContextRegistry& contexts = snap->ingestion().contexts;
    std::string out = StrFormat("ok contexts n=%zu\n", contexts.size());
    for (const Context& c : contexts.contexts()) {
      out += StrFormat("context %s\n", c.Label().c_str());
    }
    out += "end\n";
    return out;
  }
  if (verb == "GEN") {
    return StrFormat("ok gen=%llu\n",
                     static_cast<unsigned long long>(
                         state.service.snapshot()->generation()));
  }
  if (verb == "STATS") {
    return StrFormat("ok stats\n%send\n",
                     state.service.Stats()
                         .ToString(/*deterministic_only=*/true)
                         .c_str());
  }
  return StrFormat("err InvalidArgument: unknown verb '%s'\n", verb.c_str());
}

std::string ServingBanner(const RelaxationService& service,
                          const ServiceOptions& options) {
  return StrFormat(
      "ok serving gen=%llu workers=%u queue=%zu cache=%zu\n",
      static_cast<unsigned long long>(service.snapshot()->generation()),
      options.num_workers, options.queue_capacity, options.cache.capacity);
}

/// The stdin/stdout transport: one synchronous session on this thread.
/// RELOAD runs inline — with a single client there is nobody else to
/// keep serving, and the synchronous reply keeps the scripted-session
/// transcript byte-identical to the TCP transport's.
int RunStdioSession(ServerState& state) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb == "QUIT") {
      std::printf("ok bye\n");
      break;
    }
    if (verb == "RELOAD") {
      std::string image_arg;
      in >> image_arg;
      std::fputs(DoReload(state, image_arg).c_str(), stdout);
      std::fflush(stdout);
      continue;
    }
    if (verb == "RELAX") {
      RelaxRequest request;
      std::string term;
      std::string parse_error = ParseRelaxLine(state.service, in, &request,
                                               &term);
      if (!parse_error.empty()) {
        std::fputs(parse_error.c_str(), stdout);
      } else {
        Result<RelaxResponse> response =
            state.service.Relax(std::move(request));
        std::fputs(FormatRelaxReply(term, response).c_str(), stdout);
      }
    } else {
      std::fputs(HandleControlVerb(state, verb, in).c_str(), stdout);
    }
    std::fflush(stdout);
  }
  return 0;
}

/// The TCP transport: one epoll thread owns every socket; service
/// workers complete RELAX requests and Post() the formatted reply back
/// to the loop, which routes it to the owning connection by id (the
/// connection may be gone — ids, unlike pointers, fail safely).
///
/// Per-session command order is preserved by pausing the connection
/// while a RELAX or RELOAD is in flight: later pipelined commands wait
/// in the buffers until the answer is on the wire. Different sessions
/// proceed concurrently — that is the point of the frontend. RELOAD
/// follows the same shape as RELAX but runs on the dedicated
/// ReloadExecutor thread: the reload never blocks the event loop (every
/// other session keeps answering) and never occupies a query worker.
///
/// MEDRELAX_LOOP_THREAD_ONLY: EventLoop::Run turns the calling thread
/// into the loop thread, so everything this function touches after
/// setup runs under loop affinity.
int RunTcpServer(ServerState& state, const ServiceOptions& service_options,
                 uint16_t port, size_t max_conns,
                 size_t max_line) MEDRELAX_LOOP_THREAD_ONLY {
  net::EventLoop loop;
  if (!loop.ok()) {
    std::fprintf(stderr, "event loop init failed (epoll/eventfd)\n");
    return 1;
  }
  net::LineServer server(loop);
  // Declared after loop and server: destroyed (drained + joined) first,
  // so a reload finishing during shutdown still Posts into a live loop.
  ReloadExecutor reload_executor;

  net::LineServerOptions options;
  options.port = port;
  options.max_connections = max_conns;
  if (max_line != 0) options.limits.max_line_bytes = max_line;
  options.greeting = ServingBanner(state.service, service_options);

  auto on_line = [&state, &loop, &server, &reload_executor](
                     net::Connection& conn, std::string line) {
    if (line.empty() || line[0] == '#') return;
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb == "QUIT") {
      conn.Send("ok bye\n");
      conn.CloseAfterFlush();
      return;
    }
    if (verb == "RELOAD") {
      // Same pause-then-post shape as RELAX below, but the heavy work
      // runs on the reload thread: this session waits for its answer,
      // every other session keeps being served by the loop meanwhile.
      std::string image_arg;
      in >> image_arg;
      conn.Pause();
      const uint64_t conn_id = conn.id();
      reload_executor.Submit([&state, &loop, &server, conn_id,
                              image_arg = std::move(image_arg)]() {
        std::string reply = DoReload(state, image_arg);
        loop.Post([&server, conn_id, reply = std::move(reply)]() {
          net::Connection* target = server.Find(conn_id);
          if (target == nullptr) return;  // client disconnected mid-flight
          target->Send(reply);
          target->Resume();
        });
      });
      return;
    }
    if (verb != "RELAX") {
      conn.Send(HandleControlVerb(state, verb, in));
      return;
    }
    RelaxRequest request;
    std::string term;
    std::string parse_error =
        ParseRelaxLine(state.service, in, &request, &term);
    if (!parse_error.empty()) {
      conn.Send(parse_error);
      return;
    }
    // Hold this session's later commands until the answer is out, then
    // hand the request to the workers. The completion runs on a worker
    // thread: it formats the reply (strings, no sockets) and posts it to
    // the loop, keyed by connection id in case the client vanished.
    conn.Pause();
    const uint64_t conn_id = conn.id();
    state.service.SubmitAsync(
        std::move(request),
        [&loop, &server, conn_id, term](Result<RelaxResponse> response) {
          std::string reply = FormatRelaxReply(term, response);
          loop.Post([&server, conn_id, reply = std::move(reply)]() {
            net::Connection* target = server.Find(conn_id);
            if (target == nullptr) return;  // client disconnected mid-flight
            target->Send(reply);
            target->Resume();
          });
        });
  };

  net::LineServer::Callbacks callbacks;
  callbacks.on_line = on_line;
  callbacks.on_accept = [&state](net::Connection&) {
    state.service.TransportStats().RecordConnectionOpened();
  };
  callbacks.on_reject = [&state]() {
    state.service.TransportStats().RecordConnectionRejected();
  };
  callbacks.on_disconnect = [&state](const net::Connection& conn,
                                     const Status& reason) {
    const net::ConnectionStats& stats = conn.stats();
    state.service.TransportStats().RecordConnectionClosed();
    if (stats.oversize_rejects > 0) {
      // The true count, not a per-connection flag: a session can shed
      // several oversized lines before it is finally torn down.
      state.service.TransportStats().RecordLineRejected(
          stats.oversize_rejects);
    }
    std::fprintf(stderr,
                 "conn %llu closed (%s): lines_in=%llu bytes_in=%llu"
                 " bytes_out=%llu writes_deferred=%llu\n",
                 static_cast<unsigned long long>(conn.id()),
                 reason.ok() ? "ok" : reason.ToString().c_str(),
                 static_cast<unsigned long long>(stats.lines_in),
                 static_cast<unsigned long long>(stats.bytes_in),
                 static_cast<unsigned long long>(stats.bytes_out),
                 static_cast<unsigned long long>(stats.writes_deferred));
  };

  Status started = server.Start(options, std::move(callbacks));
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ok listening port=%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  loop.Run();
  return 0;
}

int RunServe(int argc, char** argv) {
  if (const int rc = RejectUnknownArgs(argc, argv); rc != 0) return rc;
  const char* image = FlagValue(argc, argv, "--image");
  if (image == nullptr) {
    std::fprintf(stderr, "medrelax_server: serve needs --image FILE\n");
    return Usage();
  }
  CountFlags flags(argc, argv);
  ServiceOptions service_options;
  service_options.num_workers =
      static_cast<unsigned>(flags.Get("--workers", 1, kMaxWorkers));
  service_options.queue_capacity = flags.Get("--queue", 64);
  service_options.cache.capacity = flags.Get("--cache", 1024);
  service_options.default_deadline = std::chrono::milliseconds(
      flags.Get("--deadline-ms", 0, serve::kMaxTimeoutMs));
  service_options.max_batch = flags.Get("--batch", service_options.max_batch);
  const bool listen = FlagValue(argc, argv, "--listen") != nullptr;
  const auto port = static_cast<uint16_t>(
      flags.Get("--listen", 0, std::numeric_limits<uint16_t>::max()));
  const size_t max_conns = flags.Get("--max-conns", 64);
  const size_t max_line = flags.Get("--max-line", 0);
  if (const int rc = RejectBadFlags(flags); rc != 0) return rc;
  // Without workers only the stdio session pumps the queue (RunOnce);
  // over TCP nothing would ever serve an admitted RELAX.
  if (listen && service_options.num_workers == 0) {
    std::fprintf(stderr, "medrelax_server: --listen needs --workers >= 1\n");
    return 2;
  }
  // --cache-policy lru|activity: "lru" pins the pre-activity strict-LRU
  // behavior (the golden-parity escape hatch and the A/B baseline the
  // smoke script's cache-stress stage compares against); the default is
  // the decayed-activity policy from ResultCacheOptions.
  if (const char* policy = FlagValue(argc, argv, "--cache-policy")) {
    if (std::strcmp(policy, "lru") == 0) {
      service_options.cache.policy.eviction = CachePolicy::Eviction::kLru;
    } else if (std::strcmp(policy, "activity") == 0) {
      service_options.cache.policy.eviction =
          CachePolicy::Eviction::kDecayedActivity;
    } else {
      std::fprintf(stderr, "unknown --cache-policy '%s'\n", policy);
      return Usage();
    }
  }
  // Test hook: scripts/server_smoke.sh pads every computed (cache-miss)
  // answer so concurrent duplicate requests deterministically pile onto
  // the in-flight leader and `coalesced_hits` is provably non-zero.
  if (const char* delay_ms = std::getenv("MEDRELAX_COMPUTE_TEST_DELAY_MS")) {
    const unsigned long ms = std::strtoul(delay_ms, nullptr, 10);
    service_options.pre_compute_hook_for_test = [ms]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }

  Result<std::shared_ptr<Snapshot>> snapshot = Snapshot::LoadFromImage(image);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot image load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const uint64_t load_micros = (*snapshot)->load_micros();
  RelaxationService service(std::move(*snapshot), service_options);
  service.TransportStats().RecordImageLoad(load_micros);
  ServerState state{service, image};

  if (listen) {
    // lint:allow(loop-affinity) EventLoop::Run makes this thread the loop
    return RunTcpServer(state, service_options, port, max_conns, max_line);
  }

  std::fputs(ServingBanner(service, service_options).c_str(), stdout);
  std::fflush(stdout);
  return RunStdioSession(state);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "serve") == 0) return RunServe(argc, argv);
  return Usage();
}
