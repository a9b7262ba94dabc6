// medrelax_client: the counterpart to `medrelax_server --listen` — a
// scripted session pipe and a closed-loop load driver over the TCP
// transport, both loopback-only like the server.
//
//   medrelax_client session <port>
//       Streams stdin to 127.0.0.1:<port> and everything the server
//       sends back to stdout, until both sides are done (stdin EOF
//       half-closes the socket; a server "ok bye" close ends the read
//       side). Piping the golden session file through this must produce
//       the same transcript as piping it into the stdin transport —
//       scripts/server_smoke.sh diffs exactly that.
//
//   medrelax_client load <port> [--requests N] [--connections C]
//                        [--line 'RELAX ...' | --replay FILE]
//                        [--zipf THETA] [--seed S]
//       C concurrent sessions issue N requests total, each waiting for
//       its full reply frame before sending the next (closed loop).
//       With --replay FILE the request stream is a session replay: every
//       session cycles through FILE's command lines in order (blank and
//       '#' lines skipped), so a recorded session with repeated or
//       correlated keys reproduces a duplicate-heavy mix. With
//       --zipf THETA the replay lines are not cycled in order: each
//       request draws a line by Zipf(THETA) popularity rank (line 1 of
//       FILE is the hottest), from a per-session mt19937 seeded with
//       S + session index — the skewed-popularity mix the result
//       cache's activity policy is built for (scripts/server_smoke.sh
//       "cache-stress"). Prints
//       "ok load requests=N answered=A errors=E" on stdout. Timing goes
//       to stderr so stdout stays machine-diffable: wall time and
//       throughput, then the p50/p99/p999/max of every reply's
//       send-to-reply latency as this client saw it.
//
//   A port outside 1..65535, or a malformed numeric flag, exits 2 with
//   the reason on stderr.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  medrelax_client session <port>\n"
               "  medrelax_client load <port> [--requests N]"
               " [--connections C] [--line 'RELAX ...' | --replay FILE]"
               " [--zipf THETA] [--seed S]\n");
  return 2;
}

using medrelax::tools::CountFlags;
using medrelax::tools::FlagValue;

/// --zipf THETA: a finite, non-negative decimal; anything else (trailing
/// junk included) is rejected rather than read as a prefix or as 0.
bool ParseTheta(const char* text, double* theta) {
  char* end = nullptr;
  errno = 0;
  *theta = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0 && std::isfinite(*theta) &&
         *theta >= 0;
}

/// Cumulative Zipf(theta) popularity over `ranks` items: weight of rank r
/// is 1/(r+1)^theta. Sampling is an upper_bound over this prefix table,
/// so two runs with the same seed draw the same request sequence.
std::vector<double> ZipfCdf(size_t ranks, double theta) {
  std::vector<double> cdf(ranks);
  double total = 0;
  for (size_t r = 0; r < ranks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Nanoseconds elapsed since `start` on the steady clock.
uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Nearest-rank quantile `q` of the ascending, non-empty `sorted`.
double Quantile(const std::vector<uint64_t>& sorted, double q) {
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[rank == 0 ? 0 : rank - 1]);
}

/// Blocking connect to 127.0.0.1:port. Returns the fd, or -1 with the
/// reason on stderr.
int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "connect 127.0.0.1:%u: %s\n",
                 static_cast<unsigned>(port), std::strerror(errno));
    close(fd);
    return -1;
  }
  return fd;
}

/// Writes all of `data`, looping over partial sends. False on error.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reassembles '\n'-framed lines from a blocking socket; mirrors the
/// server's framing (trailing '\r' stripped, EOF flushes a final
/// unterminated line).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False only when the stream is exhausted (EOF or error) and no
  /// buffered line remains.
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (eof_) {
        if (buf_.empty()) return false;
        *line = std::move(buf_);
        buf_.clear();
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      eof_ = true;  // orderly EOF and hard errors end the stream alike
    }
  }

 private:
  int fd_;
  std::string buf_;
  bool eof_ = false;
};

int RunSession(uint16_t port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return 1;

  // Writer: stdin → socket; half-close on input EOF so a session file
  // without QUIT still terminates (the server treats EOF like QUIT).
  std::thread writer([fd] {
    std::string line;
    while (std::getline(std::cin, line)) {
      line += '\n';
      if (!SendAll(fd, line)) break;
    }
    shutdown(fd, SHUT_WR);
  });

  // Reader: socket → stdout until the server closes.
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      std::fwrite(buf, 1, static_cast<size_t>(n), stdout);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  std::fflush(stdout);
  writer.join();
  close(fd);
  return 0;
}

/// Whether `command`'s "ok" reply is a multi-line frame terminated by
/// "end" (mirrors how the server formats each verb's answer).
bool IsMultiLineReply(const std::string& command) {
  return command.rfind("RELAX", 0) == 0 || command.rfind("CONTEXTS", 0) == 0 ||
         command.rfind("STATS", 0) == 0;
}

/// One load session: greet, then `requests` closed-loop command/reply
/// rounds over `script` — in order (one entry for --line, the whole
/// replay file otherwise), or by Zipf popularity rank when `zipf_cdf` is
/// non-null (--zipf; `seed` makes the draw sequence reproducible).
/// Replies are framed like the server formats them: "err ..." is one
/// line, multi-line "ok" frames end with "end", other "ok" replies are
/// one line. Appends the send-to-reply nanoseconds of every whole reply
/// (err replies included) to `*latencies_ns`, which is this session's
/// own.
void LoadWorker(uint16_t port, size_t requests,
                const std::vector<std::string>& script,
                const std::vector<double>* zipf_cdf, uint64_t seed,
                std::atomic<uint64_t>* answered, std::atomic<uint64_t>* errors,
                std::vector<uint64_t>* latencies_ns) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    errors->fetch_add(requests, std::memory_order_relaxed);
    return;
  }
  LineReader reader(fd);
  std::string line;
  if (!reader.ReadLine(&line) || line.rfind("ok serving", 0) != 0) {
    // No greeting: likely rejected at the connection cap.
    errors->fetch_add(requests, std::memory_order_relaxed);
    close(fd);
    return;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t i = 0; i < requests; ++i) {
    size_t slot = i % script.size();
    if (zipf_cdf != nullptr) {
      slot = static_cast<size_t>(
          std::upper_bound(zipf_cdf->begin(), zipf_cdf->end(), unit(rng)) -
          zipf_cdf->begin());
      if (slot >= script.size()) slot = script.size() - 1;
    }
    const std::string& command = script[slot];
    const auto sent = std::chrono::steady_clock::now();
    if (!SendAll(fd, command + "\n") || !reader.ReadLine(&line)) {
      errors->fetch_add(requests - i, std::memory_order_relaxed);
      close(fd);
      return;
    }
    if (line.rfind("err", 0) == 0) {
      latencies_ns->push_back(NanosSince(sent));
      errors->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (IsMultiLineReply(command)) {
      bool closed = false;
      while (line != "end") {
        if (!reader.ReadLine(&line)) {
          closed = true;
          break;
        }
      }
      if (closed) {
        errors->fetch_add(requests - i, std::memory_order_relaxed);
        close(fd);
        return;
      }
    }
    latencies_ns->push_back(NanosSince(sent));
    answered->fetch_add(1, std::memory_order_relaxed);
  }
  SendAll(fd, "QUIT\n");
  while (reader.ReadLine(&line)) {
  }
  close(fd);
}

int DriveLoad(int argc, char** argv, uint16_t port) {
  CountFlags flags(argc, argv);
  const size_t requests = flags.Get("--requests", 100);
  const size_t connections = flags.Get("--connections", 1, 1024);
  const uint64_t seed = flags.Get("--seed", 42);
  double zipf_theta = 0.0;
  const char* zipf_flag = FlagValue(argc, argv, "--zipf");
  if (!flags.status().ok()) {
    std::fprintf(stderr, "medrelax_client: %s\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  if (zipf_flag != nullptr && !ParseTheta(zipf_flag, &zipf_theta)) {
    std::fprintf(stderr,
                 "medrelax_client: --zipf wants a non-negative number, got"
                 " '%s'\n",
                 zipf_flag);
    return 2;
  }
  const char* line_flag = FlagValue(argc, argv, "--line");
  const char* replay_flag = FlagValue(argc, argv, "--replay");
  if (line_flag != nullptr && replay_flag != nullptr) return Usage();
  std::vector<std::string> script;
  if (replay_flag != nullptr) {
    std::ifstream file(replay_flag);
    if (!file) {
      std::fprintf(stderr, "cannot read replay file '%s'\n", replay_flag);
      return 1;
    }
    std::string line;
    while (std::getline(file, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      if (line == "QUIT") continue;  // every session QUITs on its own
      script.push_back(line);
    }
    if (script.empty()) {
      std::fprintf(stderr, "replay file '%s' has no commands\n", replay_flag);
      return 1;
    }
  } else {
    script.push_back(line_flag != nullptr ? line_flag : "GEN");
  }
  if (connections == 0 || requests == 0) return Usage();
  std::vector<double> zipf_cdf;
  if (zipf_theta > 0) zipf_cdf = ZipfCdf(script.size(), zipf_theta);

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<uint64_t>> latencies_ns(connections);
  const auto t_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    // Spread the total across sessions; the first takes the remainder.
    size_t share = requests / connections;
    if (c == 0) share += requests % connections;
    threads.emplace_back(LoadWorker, port, share, std::cref(script),
                         zipf_theta > 0 ? &zipf_cdf : nullptr, seed + c,
                         &answered, &errors, &latencies_ns[c]);
  }
  for (std::thread& t : threads) t.join();
  const auto t_end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(t_end - t_start).count();

  std::printf("ok load requests=%zu answered=%llu errors=%llu\n", requests,
              static_cast<unsigned long long>(
                  answered.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  errors.load(std::memory_order_relaxed)));
  std::fprintf(stderr, "connections=%zu wall=%.3fs throughput=%.0f req/s\n",
               connections, seconds,
               seconds > 0 ? static_cast<double>(requests) / seconds : 0);
  std::vector<uint64_t> all_ns;
  for (const std::vector<uint64_t>& session : latencies_ns) {
    all_ns.insert(all_ns.end(), session.begin(), session.end());
  }
  if (!all_ns.empty()) {
    std::sort(all_ns.begin(), all_ns.end());
    std::fprintf(stderr,
                 "latency_us replies=%zu p50=%.1f p99=%.1f p999=%.1f"
                 " max=%.1f\n",
                 all_ns.size(), Quantile(all_ns, 0.50) / 1e3,
                 Quantile(all_ns, 0.99) / 1e3, Quantile(all_ns, 0.999) / 1e3,
                 static_cast<double>(all_ns.back()) / 1e3);
  }
  return errors.load(std::memory_order_relaxed) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const medrelax::Result<uint64_t> port = medrelax::tools::ParseCount(
      argv[2], "port", std::numeric_limits<uint16_t>::max());
  if (!port.ok() || *port == 0) {
    std::fprintf(stderr, "medrelax_client: %s\n",
                 port.ok() ? "port 0 is not connectable"
                           : port.status().ToString().c_str());
    return 2;
  }
  const auto tcp_port = static_cast<uint16_t>(*port);
  if (std::strcmp(argv[1], "session") == 0) return RunSession(tcp_port);
  if (std::strcmp(argv[1], "load") == 0) {
    return DriveLoad(argc, argv, tcp_port);
  }
  return Usage();
}
