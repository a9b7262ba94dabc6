// `relaxbench wire`: the closed-loop TCP load client.
//
// Opens three read connections to a running medrelax_server (plus one
// RELOAD connection on reload workloads), each replaying its own seeded
// request stream with one request in flight, for a warm-up and then a
// timed phase. Every reply is kept as a hash of its masked text and is
// checked afterwards against a reference computed in-process from the
// same image. Server CPU time and peak RSS come from /proc.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cerrno>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "medrelax/common/string_util.h"
#include "stream.h"
#include "subcommands.h"

namespace perfbench {
namespace {

/// A blocking loopback connection speaking the line protocol.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A server that stops answering must not hang the benchmark.
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    std::string banner;
    return ReadLine(&banner) && medrelax::StartsWith(banner, "ok serving");
  }

  bool Send(const std::string& line) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one reply. Replies whose first line starts with a non-empty
  /// `multi_line_prefix` run until a line reading "end".
  bool ReadReply(std::string_view multi_line_prefix, std::string* reply) {
    reply->clear();
    std::string line;
    if (!ReadLine(&line)) return false;
    *reply += line;
    *reply += '\n';
    if (multi_line_prefix.empty() ||
        !medrelax::StartsWith(line, multi_line_prefix)) {
      return true;
    }
    while (line != "end") {
      if (!ReadLine(&line)) return false;
      *reply += line;
      *reply += '\n';
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Reads what the socket holds without blocking; false once the peer
  /// closed or the socket failed.
  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

  /// Moves one complete RELAX reply out of the buffer, if there is one.
  bool TakeRelaxReply(std::string* reply) {
    const size_t eol = buf_.find('\n', head_);
    if (eol == std::string::npos) return false;
    size_t end = eol + 1;
    if (std::string_view(buf_).substr(head_, 8) == "ok relax") {
      const size_t last = buf_.find("\nend\n", eol);
      if (last == std::string::npos) return false;
      end = last + 5;
    }
    reply->assign(buf_, head_, end - head_);
    head_ = end;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
    return true;
  }

  /// One request, one reply; `nanos` gets the send -> full reply time.
  bool RoundTrip(const std::string& line, std::string_view multi_line_prefix,
                 std::string* reply, uint64_t* nanos) {
    const Clock::time_point start = Clock::now();
    if (!Send(line) || !ReadReply(multi_line_prefix, reply)) return false;
    *nanos = NanosSince(start, Clock::now());
    return true;
  }

 private:
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t eol = buf_.find('\n', head_);
      if (eol != std::string::npos) {
        line->assign(buf_, head_, eol - head_);
        head_ = eol + 1;
        return true;
      }
      if (head_ > 0) {
        buf_.erase(0, head_);
        head_ = 0;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t head_ = 0;
};

/// Server utime + stime in microseconds, over all its threads.
double ServerCpuMicros(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13; ++i) fields >> field;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Server peak resident set (VmHWM) in MiB.
double ServerPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (medrelax::StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

/// One RELAX as the client saw it.
struct Record {
  uint64_t key = 0;
  uint64_t reply_hash = 0;
  uint64_t latency_ns = 0;
  /// Completion time, nanoseconds after the timed window opened
  /// (negative during warm-up).
  int64_t done_ns = 0;
  /// Sent after the timed phase began (a latency sample).
  bool timed = false;
  bool is_err = false;
};

enum Phase : int { kWarmup = 0, kTimed = 1, kDone = 2 };

struct ConnectionResult {
  std::vector<Record> records;
  /// Reply class of every err reply, by record index.
  std::vector<std::pair<size_t, std::string>> errors;
  bool dropped = false;
};

struct ReloadResult {
  std::vector<double> rtt_ms;
  size_t failed = 0;
  bool dropped = false;
};

/// Requests whose reply is kept in the answer digest, per connection.
constexpr size_t kDigestPrefix = 256;
/// Untimed closed-loop warm-up before the timed phase.
constexpr double kWarmupSeconds = 1.0;
/// Fewest latency samples in one block of the timed window: at least ten
/// beyond its p99.
constexpr size_t kMinBlockSamples = 1000;
/// Round trips of each idle-server probe.
constexpr size_t kGenProbes = 200;
constexpr size_t kReloadProbes = 7;

}  // namespace

int RunWire(const Flags& flags) {
  WorkloadSpec spec;
  if (!FindWorkload(flags.Get("--workload"), &spec)) {
    std::fprintf(stderr, "unknown --workload\n");
    return 2;
  }
  const std::string image = flags.Get("--image");
  const std::string reload_path = flags.Get("--reload-path", image);
  const uint64_t seed = static_cast<uint64_t>(flags.Number("--seed", 1));
  const int port = static_cast<int>(flags.Number("--port", 0));
  const int server_pid = static_cast<int>(flags.Number("--server-pid", 0));
  const double seconds = flags.Number("--seconds", 10);
  const unsigned num_conns = kConnections;
  const bool corrupt_reference = flags.Has("--corrupt-reference");

  medrelax::Result<std::shared_ptr<medrelax::Snapshot>> loaded =
      medrelax::Snapshot::LoadFromImage(image);
  if (!loaded.ok()) {
    std::fprintf(stderr, "image load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const medrelax::Snapshot& snap = **loaded;
  const Vocabulary vocab(snap, spec);
  if (vocab.num_names() == 0) {
    std::fprintf(stderr, "no addressable KB names in the image\n");
    return 1;
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (unsigned c = 0; c < num_conns + (spec.reload_every_ms ? 1 : 0); ++c) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->Open(port)) {
      std::fprintf(stderr, "connect to port %d failed\n", port);
      return 1;
    }
  }

  // Context-addressability probe: one RELAX per label CONTEXTS lists.
  size_t contexts_total = 0, contexts_unaddressable = 0;
  {
    std::string reply;
    uint64_t nanos = 0;
    if (!conns[0]->RoundTrip("CONTEXTS", "ok contexts", &reply, &nanos)) {
      std::fprintf(stderr, "CONTEXTS failed\n");
      return 1;
    }
    std::istringstream lines(reply);
    std::string line;
    while (std::getline(lines, line)) {
      if (!medrelax::StartsWith(line, "context ")) continue;
      ++contexts_total;
      std::string answer;
      if (!conns[0]->RoundTrip("RELAX ctx=" + line.substr(8) + " " +
                                   vocab.terms()[0],
                               "ok relax", &answer, &nanos)) {
        std::fprintf(stderr, "context probe failed\n");
        return 1;
      }
      if (medrelax::StartsWith(answer,
                               "err InvalidArgument: unknown context")) {
        ++contexts_unaddressable;
      }
    }
  }

  std::atomic<int> phase{kWarmup};
  Clock::time_point window_start = Clock::now() + std::chrono::hours(1);
  std::atomic<int64_t> window_start_ns{INT64_MAX};
  const Clock::time_point epoch = Clock::now();

  // One pump thread drives every read connection, one request in flight
  // on each.
  std::vector<ConnectionResult> results(num_conns);
  std::thread pump([&]() {
    struct Slot {
      RequestStream stream;
      Request request;
      Clock::time_point sent;
      bool timed = false;
      bool busy = false;
    };
    std::vector<Slot> slots;
    std::vector<pollfd> fds;
    for (unsigned c = 0; c < num_conns; ++c) {
      slots.push_back(Slot{RequestStream(&vocab, spec, seed, c), {}, {}});
      fds.push_back(pollfd{conns[c]->fd(), POLLIN, 0});
      results[c].records.reserve(1 << 16);
    }
    std::string reply;
    size_t busy = 0;
    for (;;) {
      const int current = phase.load(std::memory_order_acquire);
      if (current == kDone && busy == 0) break;
      for (unsigned c = 0; c < num_conns && current != kDone; ++c) {
        Slot& slot = slots[c];
        if (slot.busy || results[c].dropped) continue;
        slot.request = slot.stream.Next();
        slot.timed = current == kTimed;
        slot.sent = Clock::now();
        if (!conns[c]->Send(vocab.Line(slot.request))) {
          results[c].dropped = true;
          continue;
        }
        slot.busy = true;
        ++busy;
      }
      if (busy == 0) continue;
      if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
        break;
      }
      for (unsigned c = 0; c < num_conns; ++c) {
        Slot& slot = slots[c];
        const short ready = fds[c].revents & (POLLIN | POLLERR | POLLHUP);
        if (!slot.busy || ready == 0) continue;
        ConnectionResult& out = results[c];
        if (!conns[c]->Fill()) {
          out.dropped = true;
          slot.busy = false;
          --busy;
          continue;
        }
        if (!conns[c]->TakeRelaxReply(&reply)) continue;
        const Clock::time_point now = Clock::now();
        Record record;
        record.key = slot.request.Key();
        record.timed = slot.timed;
        record.latency_ns = NanosSince(slot.sent, now);
        record.done_ns = static_cast<int64_t>(NanosSince(epoch, now)) -
                         window_start_ns.load(std::memory_order_acquire);
        record.reply_hash = Fnv1a(MaskReply(reply));
        record.is_err = !medrelax::StartsWith(reply, "ok");
        if (record.is_err) {
          out.errors.emplace_back(out.records.size(), ReplyClass(reply));
        }
        out.records.push_back(record);
        slot.busy = false;
        --busy;
      }
    }
  });

  ReloadResult reloads;
  std::thread reloader;
  std::atomic<bool> reload_go{false};
  if (spec.reload_every_ms != 0) {
    reloader = std::thread([&]() {
      while (!reload_go.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto period = std::chrono::milliseconds(spec.reload_every_ms);
      Clock::time_point next = window_start;
      std::string reply;
      while (phase.load(std::memory_order_acquire) == kTimed) {
        std::this_thread::sleep_until(next);
        next += period;
        if (phase.load(std::memory_order_acquire) != kTimed) break;
        uint64_t nanos = 0;
        if (!conns[num_conns]->RoundTrip("RELOAD " + reload_path, "",
                                         &reply, &nanos)) {
          reloads.dropped = true;
          return;
        }
        if (medrelax::StartsWith(reply, "ok reload")) {
          reloads.rtt_ms.push_back(static_cast<double>(nanos) / 1e6);
        } else {
          ++reloads.failed;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const double cpu_start = ServerCpuMicros(server_pid);
  window_start = Clock::now();
  window_start_ns.store(static_cast<int64_t>(NanosSince(epoch, window_start)),
                        std::memory_order_release);
  phase.store(kTimed, std::memory_order_release);
  reload_go.store(true, std::memory_order_release);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const int64_t window_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(window).count());
  // The window is cut into one-second ticks, the last one possibly
  // shorter; server CPU is read at every tick boundary.
  const size_t num_ticks = static_cast<size_t>(
      std::max<int64_t>(1, (window_ns + 999999999) / 1000000000));
  std::vector<int64_t> tick_ns{0};
  std::vector<double> tick_cpu{cpu_start};
  for (size_t t = 1; t <= num_ticks; ++t) {
    tick_ns.push_back(std::min<int64_t>(static_cast<int64_t>(t) * 1000000000,
                                        window_ns));
    std::this_thread::sleep_until(window_start +
                                  std::chrono::nanoseconds(tick_ns.back()));
    tick_cpu.push_back(ServerCpuMicros(server_pid));
  }
  phase.store(kDone, std::memory_order_release);
  pump.join();
  if (reloader.joinable()) reloader.join();

  // Idle-server probes: GEN round trips, and RELOAD round trips on
  // workloads that do not reload under load.
  std::vector<uint64_t> gen_rtt;
  std::string reply;
  for (size_t i = 0; i < kGenProbes; ++i) {
    uint64_t nanos = 0;
    if (!conns[0]->RoundTrip("GEN", "", &reply, &nanos)) break;
    gen_rtt.push_back(nanos);
  }
  if (spec.reload_every_ms == 0) {
    for (size_t i = 0; i < kReloadProbes; ++i) {
      uint64_t nanos = 0;
      if (!conns[0]->RoundTrip("RELOAD " + reload_path, "", &reply,
                               &nanos)) {
        reloads.dropped = true;
        break;
      }
      if (medrelax::StartsWith(reply, "ok reload")) {
        reloads.rtt_ms.push_back(static_cast<double>(nanos) / 1e6);
      } else {
        ++reloads.failed;
      }
    }
  }
  const double rss_mb = ServerPeakRssMb(server_pid);

  // Reference answers, once per distinct request line. Untimed, so it
  // may use every core even when run.py bound the client to one.
  std::vector<uint64_t> distinct;
  {
    std::unordered_map<uint64_t, bool> seen;
    for (const ConnectionResult& r : results) {
      for (const Record& rec : r.records) {
        if (seen.emplace(rec.key, true).second) distinct.push_back(rec.key);
      }
    }
  }
  std::vector<uint64_t> reference(distinct.size());
  {
    cpu_set_t all_cores;
    CPU_ZERO(&all_cores);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &all_cores);
    (void)::sched_setaffinity(0, sizeof(all_cores), &all_cores);
    std::atomic<size_t> next{0};
    const unsigned helpers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < helpers; ++t) {
      pool.emplace_back([&]() {
        for (size_t i = next++; i < distinct.size(); i = next++) {
          reference[i] = Fnv1a(ReferenceReply(
              snap, vocab.Args(Request::FromKey(distinct[i]))));
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  std::unordered_map<uint64_t, uint64_t> expected;
  for (size_t i = 0; i < distinct.size(); ++i) {
    expected[distinct[i]] = reference[i];
  }
  // Self-test hook: a deliberately wrong reference must surface as
  // failed operations.
  if (corrupt_reference && !distinct.empty()) expected[distinct[0]] ^= 1;

  size_t attempted = 0, answered = 0, mismatches = 0, dropped = 0;
  std::map<std::string, size_t> failures;
  std::vector<uint64_t> latencies;
  // Per tick: replies completed in it, the correct ones among them, and
  // the latencies of the timed ones.
  std::vector<size_t> tick_done(num_ticks), tick_correct(num_ticks);
  std::vector<std::vector<uint64_t>> tick_latencies(num_ticks);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const ConnectionResult& r : results) {
    std::unordered_map<size_t, std::string> err_class(r.errors.begin(),
                                                      r.errors.end());
    for (size_t i = 0; i < r.records.size(); ++i) {
      const Record& rec = r.records[i];
      const bool done_in_window = rec.done_ns >= 0 && rec.done_ns < window_ns;
      const size_t tick = std::min<size_t>(
          static_cast<size_t>(std::max<int64_t>(rec.done_ns, 0) / 1000000000),
          num_ticks - 1);
      ++attempted;
      if (!rec.is_err) ++answered;
      if (rec.timed) latencies.push_back(rec.latency_ns);
      if (done_in_window) {
        ++tick_done[tick];
        if (rec.timed) tick_latencies[tick].push_back(rec.latency_ns);
      }
      if (i < kDigestPrefix) {
        digest = Fnv1a(std::string_view(
                           reinterpret_cast<const char*>(&rec.reply_hash),
                           sizeof(rec.reply_hash)),
                       digest);
      }
      if (rec.reply_hash == expected[rec.key]) {
        if (done_in_window) ++tick_correct[tick];
        continue;
      }
      if (rec.is_err) {
        ++failures[err_class[i]];
      } else {
        ++mismatches;
        ++failures["mismatch"];
      }
    }
    if (r.dropped) {
      ++dropped;
      ++attempted;
      ++failures["dropped"];
    }
  }
  attempted += reloads.rtt_ms.size() + reloads.failed;
  if (reloads.failed > 0) failures["reload err"] += reloads.failed;
  if (reloads.dropped) {
    ++dropped;
    ++attempted;
    ++failures["dropped"];
  }
  size_t failed = 0;
  for (const auto& [cls, n] : failures) failed += n;

  JsonObject failure_json;
  for (const auto& [cls, n] : failures) {
    failure_json.Number(cls, static_cast<double>(n));
  }
  // The timed window is cut into blocks of whole ticks, each holding at
  // least kMinBlockSamples latency samples (a short remainder joins the
  // last block). Each rate and percentile is taken per block and reported
  // as the median over blocks: a stall of the shared host that hits a few
  // seconds of the window spoils a few blocks, where over the pooled
  // window it would set the whole tail.
  std::vector<size_t> block_end;
  size_t open_samples = 0;
  for (size_t t = 0; t < num_ticks; ++t) {
    open_samples += tick_latencies[t].size();
    if (open_samples >= kMinBlockSamples) {
      block_end.push_back(t + 1);
      open_samples = 0;
    }
  }
  if (block_end.empty()) block_end.push_back(num_ticks);
  block_end.back() = num_ticks;
  std::vector<double> block_rps, block_p50, block_p99, block_cpu;
  size_t begin = 0;
  for (size_t end : block_end) {
    std::vector<uint64_t> block;
    size_t done = 0, correct = 0;
    for (size_t t = begin; t < end; ++t) {
      block.insert(block.end(), tick_latencies[t].begin(),
                   tick_latencies[t].end());
      done += tick_done[t];
      correct += tick_correct[t];
    }
    const double block_seconds =
        static_cast<double>(tick_ns[end] - tick_ns[begin]) / 1e9;
    block_rps.push_back(static_cast<double>(correct) / block_seconds);
    block_cpu.push_back(done > 0 ? (tick_cpu[end] - tick_cpu[begin]) /
                                       static_cast<double>(done)
                                 : 0);
    block_p50.push_back(Quantile(block, 0.50) / 1e3);
    block_p99.push_back(Quantile(block, 0.99) / 1e3);
    begin = end;
  }
  const double samples = static_cast<double>(latencies.size());
  const double pooled_p99 = Quantile(latencies, 0.99) / 1e3;
  std::vector<double> reload_rtt = reloads.rtt_ms;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));

  JsonObject out;
  out.Number("attempted", static_cast<double>(attempted));
  out.Number("answered", static_cast<double>(answered));
  out.Number("failed", static_cast<double>(failed));
  out.Number("mismatches", static_cast<double>(mismatches));
  out.Number("dropped", static_cast<double>(dropped));
  out.Object("failures", failure_json);
  out.String("digest", digest_hex);
  out.Number("distinct_requests", static_cast<double>(distinct.size()));
  out.Number("throughput_rps", Quantile(block_rps, 0.5));
  out.Number("latency_p50_us", Quantile(block_p50, 0.5));
  out.Number("latency_p99_us", Quantile(block_p99, 0.5));
  out.Number("latency_p99_pooled_us", pooled_p99);
  out.Number("latency_samples", samples);
  out.Number("blocks", static_cast<double>(block_p99.size()));
  out.Number("cpu_us_per_req", Quantile(block_cpu, 0.5));
  out.Number("rss_mb", rss_mb);
  out.Number("reload_p50_ms", Quantile(reload_rtt, 0.5));
  out.Number("reloads", static_cast<double>(reloads.rtt_ms.size()));
  out.Number("reloads_per_s",
             spec.reload_every_ms != 0
                 ? static_cast<double>(reloads.rtt_ms.size()) / seconds
                 : 0);
  out.Number("gen_rtt_us_p50", Quantile(gen_rtt, 0.5) / 1e3);
  out.Number("contexts_total", static_cast<double>(contexts_total));
  out.Number("contexts_unaddressable",
             static_cast<double>(contexts_unaddressable));
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench
