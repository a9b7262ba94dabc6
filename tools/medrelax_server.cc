// medrelax_server: the long-lived serving front end over medrelax/serve.
//
//   medrelax_server serve --image FILE [--workers N] [--cache N]
//                         [--deadline-ms D] [--listen PORT]
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
//         STATS                               the seven service counters
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
//       as "ok listening port=N" on stdout) by N = --workers event-loop
//       threads (default 1). Accepted connections are dealt round-robin
//       to the loops; a loop answers each line on its own thread — parse,
//       map, cache probe, relax, format, write — before it reads that
//       connection's next line, one line per connection per turn. RELOADs
//       map their image on a dedicated reload thread (other sessions keep
//       answering meanwhile) and the reply is posted back to the owning
//       loop, so the same scripted session yields byte-identical
//       transcripts over both transports (scripts/server_smoke.sh diffs
//       exactly that). --deadline-ms D (and a RELAX's timeout_ms=) fails
//       a request with DeadlineExceeded when D ms passed between framing
//       its line and relaxing it.
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

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "medrelax/serve/line_protocol.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/tcp_server.h"
#include "flags.h"

using namespace medrelax;  // NOLINT — tool brevity

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  medrelax_server serve --image FILE [--workers N] [--cache N]"
      " [--deadline-ms D]\n"
      "                       [--listen PORT] [--max-conns N]"
      " [--max-line BYTES]\n"
      "      (FILE is a snapshot image written by medrelax_ingest)\n");
  return 2;
}

using tools::CountFlags;
using tools::FlagValue;

/// Upper bound of --workers: each event loop is a thread, and a mistyped
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

/// Rejects anything after `serve` that is not a distinct, known
/// `--flag value` pair (tools::CheckFlagPairs), naming the offending
/// argument; returns the usage exit code, or 0.
int RejectUnknownArgs(int argc, char** argv) {
  const Status args = tools::CheckFlagPairs(
      argc, argv, 2,
      {"--image", "--workers", "--cache", "--deadline-ms", "--listen",
       "--max-conns", "--max-line"});
  if (args.ok()) return 0;
  std::fprintf(stderr, "medrelax_server: %s\n", args.message().c_str());
  return Usage();
}

/// The stdin/stdout transport: one synchronous session on this thread.
/// RELOAD runs inline — with a single client there is nobody else to
/// keep serving, and the synchronous reply keeps the scripted-session
/// transcript byte-identical to the TCP transport's.
int RunStdioSession(serve::LineProtocol& protocol) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    const serve::VerbLine split = serve::SplitVerb(line);
    const serve::Verb verb = serve::ParseVerb(split.verb);
    if (verb == serve::Verb::kQuit) {
      std::printf("ok bye\n");
      break;
    }
    const std::string reply =
        verb == serve::Verb::kReload
            ? protocol.Reload(serve::SplitVerb(split.args).verb)
            : protocol.Answer(line, std::chrono::steady_clock::now());
    std::fputs(reply.c_str(), stdout);
    std::fflush(stdout);
  }
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
  const auto workers =
      static_cast<unsigned>(flags.Get("--workers", 1, kMaxWorkers));
  service_options.cache.capacity = flags.Get("--cache", 1024);
  service_options.default_deadline = std::chrono::milliseconds(
      flags.Get("--deadline-ms", 0, serve::kMaxTimeoutMs));
  const bool listen = FlagValue(argc, argv, "--listen") != nullptr;
  const auto port = static_cast<uint16_t>(
      flags.Get("--listen", 0, std::numeric_limits<uint16_t>::max()));
  const size_t max_conns = flags.Get("--max-conns", 64);
  const size_t max_line = flags.Get("--max-line", 0);
  if (const int rc = RejectBadFlags(flags); rc != 0) return rc;
  // Zero event loops would accept connections nothing ever answers.
  if (listen && workers == 0) {
    std::fprintf(stderr, "medrelax_server: --listen needs --workers >= 1\n");
    return 2;
  }
  Result<std::shared_ptr<Snapshot>> snapshot = Snapshot::LoadFromImage(image);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot image load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  RelaxationService service(std::move(*snapshot), service_options);
  serve::LineProtocol protocol(service, image);
  const std::string banner =
      protocol.Banner(workers, service_options.cache.capacity);

  if (!listen) {
    std::fputs(banner.c_str(), stdout);
    std::fflush(stdout);
    return RunStdioSession(protocol);
  }
  net::LineServerOptions options;
  options.port = port;
  options.max_connections = max_conns;
  if (max_line != 0) options.limits.max_line_bytes = max_line;
  options.greeting = banner;
  serve::TcpServer server(protocol, workers);
  if (Status started = server.Start(options); !started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ok listening port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.Wait();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "serve") == 0) return RunServe(argc, argv);
  return Usage();
}
