// Microbenches for the net/ frontend, socketpair-driven so they measure
// our framing and wakeup machinery rather than the TCP stack:
//
//   * BM_LineFraming/<line_bytes> — bytes through Connection's read
//     path: the client end writes batches of '\n'-framed lines, the
//     loop is pumped until every line was delivered. Reassembly, lazy
//     buffer compaction, and handler dispatch are the costs under test.
//   * BM_EventLoopPostWakeup — cross-thread Post() round trip: a worker
//     thread posts, the loop thread (this thread, via RunOnce) drains.
//     This is the path a finished RELOAD's reply (and an accepted socket)
//     takes to its loop.
//   * BM_WireRelax — one RELAX line's round trip through the server's TCP
//     path (serve::TcpServer, one event loop on its own thread) over a
//     socketpair, and the same line answered in-process by
//     serve::LineProtocol::Answer on this thread, timed in the same run.
//     The counter wire_vs_inproc = in-process time / round-trip time is
//     1.0 when the transport costs nothing; CI floors it, so the reply
//     path cannot quietly grow back thread hand-offs.
//
// Pre-1.8 google-benchmark binary — plain-double --benchmark_min_time.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/net/connection.h"
#include "medrelax/net/event_loop.h"
#include "medrelax/serve/line_protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/tcp_server.h"

using namespace medrelax;  // NOLINT — bench brevity

namespace {

class CountingHandler : public net::Connection::Handler {
 public:
  void OnLine(net::Connection&, std::string) override { ++lines; }
  void OnClose(net::Connection&, const Status&) override { closed = true; }
  size_t lines = 0;
  bool closed = false;
};

void BM_LineFraming(benchmark::State& state) {
  const size_t line_bytes = static_cast<size_t>(state.range(0));
  net::EventLoop loop;
  CountingHandler handler;
  int fds[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                 fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  net::ConnectionLimits limits;
  limits.max_line_bytes = line_bytes + 16;
  net::Connection conn(loop, fds[1], /*id=*/1, limits, &handler);
  if (!conn.Start().ok()) {
    state.SkipWithError("Connection::Start failed");
    close(fds[0]);
    return;
  }

  // One batch per iteration, sized to fit the socketpair buffer so the
  // writer never blocks (nonblocking send would short-write otherwise).
  constexpr size_t kLinesPerBatch = 32;
  std::string batch;
  for (size_t i = 0; i < kLinesPerBatch; ++i) {
    batch += std::string(line_bytes, 'q');
    batch += '\n';
  }

  size_t expected = 0;
  for (auto _ : state) {
    size_t off = 0;
    expected += kLinesPerBatch;
    while (off < batch.size()) {
      const ssize_t n =
          send(fds[0], batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
      if (n > 0) off += static_cast<size_t>(n);
      // Socket full: let the connection drain it before writing more.
      while (handler.lines < expected && loop.RunOnce(0) > 0) {
      }
    }
    while (handler.lines < expected) loop.RunOnce(/*timeout_ms=*/-1);
  }
  state.SetBytesProcessed(static_cast<int64_t>(
      state.iterations() * batch.size()));
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(expected), benchmark::Counter::kIsRate);
  close(fds[0]);
}
BENCHMARK(BM_LineFraming)->Arg(16)->Arg(128)->Arg(1024);

void BM_EventLoopPostWakeup(benchmark::State& state) {
  net::EventLoop loop;
  std::atomic<size_t> posted{0};
  std::atomic<size_t> drained{0};
  std::atomic<bool> done{false};

  // The worker plays RelaxationService: it completes "requests" by
  // posting tasks at the loop. Keeping a small window in flight mimics
  // the closed-loop server (replies never pile up unboundedly).
  std::thread worker([&] {
    constexpr size_t kWindow = 64;
    while (!done.load(std::memory_order_acquire)) {
      if (posted.load(std::memory_order_relaxed) -
              drained.load(std::memory_order_acquire) < kWindow) {
        loop.Post([&drained] {
          drained.fetch_add(1, std::memory_order_release);
        });
        posted.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (auto _ : state) {
    loop.RunOnce(/*timeout_ms=*/1);
  }
  done.store(true, std::memory_order_release);
  worker.join();
  while (loop.RunOnce(0) > 0) {
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(drained.load()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventLoopPostWakeup)->UseRealTime();

// The 2k-concept serving world of bench_serving, built once.
std::shared_ptr<Snapshot> ServingSnapshot() {
  static const std::shared_ptr<Snapshot> snapshot = [] {
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
    return built.ok() ? *built : std::shared_ptr<Snapshot>{};
  }();
  return snapshot;
}

/// Reads from the blocking `fd` until `*buffer` ends with a whole reply:
/// an `end` line after an `ok relax` header, or one `err` line. False on
/// EOF or error.
bool ReadReply(int fd, std::string* buffer) {
  buffer->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    const std::string_view got(*buffer);
    if (got.ends_with("\nend\n") ||
        (got.starts_with("err ") && got.ends_with("\n"))) {
      return true;
    }
  }
}

void BM_WireRelax(benchmark::State& state) {
  std::shared_ptr<Snapshot> snap = ServingSnapshot();
  if (snap == nullptr) {
    state.SkipWithError("snapshot build failed");
    return;
  }
  // Cache off: every request pays the relaxer, the work the transport's
  // cost is measured against.
  ServiceOptions service_options;
  service_options.cache.capacity = 0;
  RelaxationService service(snap, service_options);
  serve::LineProtocol protocol(service, /*image_path=*/"");
  serve::TcpServer server(protocol, /*num_loops=*/1);
  net::LineServerOptions options;
  options.greeting = "ok\n";
  int fds[2] = {-1, -1};
  if (!server.Start(options).ok() ||
      socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0 ||
      fcntl(fds[1], F_SETFL, O_NONBLOCK) != 0) {
    state.SkipWithError("server or socketpair setup failed");
    return;
  }
  server.Adopt(fds[1]);
  // The name of a mapped concept: an exact hit of the EDIT mapper.
  const std::string term =
      snap->dag().name(snap->ingestion().mappings.front().second);
  const std::string line = "RELAX " + term;
  const std::string framed = line + "\n";
  std::string reply;
  char greeting[3];
  if (recv(fds[0], greeting, sizeof(greeting), MSG_WAITALL) != 3 ||
      send(fds[0], framed.data(), framed.size(), MSG_NOSIGNAL) < 0 ||
      !ReadReply(fds[0], &reply)) {
    state.SkipWithError("first round trip failed");
    close(fds[0]);
    return;
  }

  // Each iteration times one round trip and then the same request
  // relaxed in-process, so both halves see the same machine state.
  using Clock = std::chrono::steady_clock;
  RelaxRequest request;
  request.term = term;
  std::vector<Clock::duration> wire_times;
  std::vector<Clock::duration> inproc_times;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    if (send(fds[0], framed.data(), framed.size(), MSG_NOSIGNAL) < 0 ||
        !ReadReply(fds[0], &reply)) {
      state.SkipWithError("round trip failed");
      break;
    }
    const Clock::time_point replied = Clock::now();
    benchmark::DoNotOptimize(service.Relax(request));
    wire_times.push_back(replied - start);
    inproc_times.push_back(Clock::now() - replied);
  }
  close(fds[0]);
  server.Stop();

  // Medians: a scheduling hiccup in a few round trips must not move the
  // ratio.
  const auto median = [](std::vector<Clock::duration>& times) {
    if (times.empty()) return 0.0;
    std::nth_element(times.begin(), times.begin() + times.size() / 2,
                     times.end());
    return static_cast<double>(times[times.size() / 2].count());
  };
  const double wire = median(wire_times);
  state.counters["wire_vs_inproc"] =
      wire > 0 ? median(inproc_times) / wire : 0.0;
  state.SetLabel("loops=1 cache=off");
}
BENCHMARK(BM_WireRelax)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
