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
//   * BM_WireRelax — the transport cost a RELAX adds, independent of how
//     fast the relaxer is. Each iteration times, over one socketpair to
//     the server's TCP path (serve::TcpServer, one event loop on its own
//     thread), a GEN round trip and a RELAX round trip, then answers both
//     lines in-process with serve::LineProtocol::Answer on this thread.
//     A line's transport is its round trip minus its in-process answer.
//     The counter gen_vs_relax_transport = GEN transport / RELAX
//     transport (medians) is ~1.0 when a RELAX is answered on the loop
//     that read it, like every control verb, and falls towards 0.5 when
//     it takes a thread hand-off there and back; CI floors it, so the
//     reply path cannot quietly grow back thread hand-offs.
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
/// an `end` line after an `ok relax` header, or any other single line
/// (`ok gen=G`, an `err`). False on EOF or error.
bool ReadReply(int fd, std::string* buffer) {
  buffer->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    const std::string_view got(*buffer);
    if (got.ends_with("\n") &&
        (!got.starts_with("ok relax") || got.ends_with("\nend\n"))) {
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

  // Each iteration times both round trips and then both lines answered
  // in-process, so every half sees the same machine state.
  using Clock = std::chrono::steady_clock;
  const std::string gen_framed = "GEN\n";
  std::vector<Clock::duration> gen_rtt;
  std::vector<Clock::duration> gen_inproc;
  std::vector<Clock::duration> relax_rtt;
  std::vector<Clock::duration> relax_inproc;
  const auto round_trip = [&](const std::string& framed_line,
                              std::vector<Clock::duration>* times) {
    const Clock::time_point start = Clock::now();
    if (send(fds[0], framed_line.data(), framed_line.size(), MSG_NOSIGNAL) <
            0 ||
        !ReadReply(fds[0], &reply)) {
      return false;
    }
    times->push_back(Clock::now() - start);
    return true;
  };
  const auto answer = [&](std::string_view answered_line,
                          std::vector<Clock::duration>* times) {
    const Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(protocol.Answer(answered_line, start));
    times->push_back(Clock::now() - start);
  };
  for (auto _ : state) {
    if (!round_trip(gen_framed, &gen_rtt) ||
        !round_trip(framed, &relax_rtt)) {
      state.SkipWithError("round trip failed");
      break;
    }
    answer("GEN", &gen_inproc);
    answer(line, &relax_inproc);
  }
  close(fds[0]);
  server.Stop();

  // Medians: a scheduling hiccup in a few round trips must not move the
  // ratio.
  const auto median_us = [](std::vector<Clock::duration>& times) {
    if (times.empty()) return 0.0;
    std::nth_element(times.begin(), times.begin() + times.size() / 2,
                     times.end());
    return std::chrono::duration<double, std::micro>(
               times[times.size() / 2])
        .count();
  };
  const double gen_transport = median_us(gen_rtt) - median_us(gen_inproc);
  const double relax_transport =
      median_us(relax_rtt) - median_us(relax_inproc);
  state.counters["gen_transport_us"] = gen_transport;
  state.counters["relax_transport_us"] = relax_transport;
  state.counters["relax_inproc_us"] = median_us(relax_inproc);
  state.counters["gen_vs_relax_transport"] =
      relax_transport > 0 ? gen_transport / relax_transport : 0.0;
  state.SetLabel("loops=1 cache=off");
}
BENCHMARK(BM_WireRelax)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
