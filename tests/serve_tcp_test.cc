// The TCP transport end to end, in-process: serve::TcpServer with several
// event loops answering RELAX lines run to completion while RELOADs swap
// the image under them. Written for the tsan preset; the oracle is exact:
// every `ok relax` reply must be, byte for byte (but for its gen= and hit=
// fields), what the generation it names computes in-process.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/common/mutex.h"
#include "medrelax/common/string_util.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/serve/line_protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/tcp_server.h"

namespace medrelax {
namespace {

using Clock = std::chrono::steady_clock;

/// A fresh directory under $TMPDIR (or /tmp), removed on destruction.
class TempDir {
 public:
  TempDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/serve_tcp_XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    for (const std::string& file : files_) std::remove(file.c_str());
    if (!path_.empty()) rmdir(path_.c_str());
  }
  std::string File(const std::string& name) {
    files_.push_back(path_ + "/" + name);
    return files_.back();
  }
  [[nodiscard]] bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

/// Generates a small world from `seed`, runs the offline phase, and
/// writes the snapshot image to `path`.
void WriteWorldImage(uint64_t seed, const std::string& path) {
  SnomedGeneratorOptions eks;
  eks.num_concepts = 600;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_findings = 40;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  ASSERT_TRUE(world.ok()) << world.status();
  Result<std::shared_ptr<Snapshot>> snapshot =
      Snapshot::Build(std::move(world->eks.dag), std::move(world->kb),
                      nullptr, SnapshotOptions{});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE((*snapshot)->WriteImage(path).ok());
}

/// A fresh, cache-less service over the image at `path`: the in-process
/// reference every wire reply naming that image is checked against.
struct Reference {
  explicit Reference(const std::string& path)
      : service(*Snapshot::LoadFromImage(path), ServiceOptions{}),
        protocol(service, path) {}
  RelaxationService service;
  serve::LineProtocol protocol;
};

/// The blocking client end of a socketpair whose server end (returned
/// in *server_fd, non-blocking) goes to TcpServer::Adopt.
int ConnectPair(int* server_fd) {
  int fds[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return -1;
  (void)fcntl(fds[1], F_SETFL, O_NONBLOCK);
  timeval tv{};
  tv.tv_sec = 30;
  setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  *server_fd = fds[1];
  return fds[0];
}

/// Buffered line reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool Next(std::string* line) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl + 1);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }
  /// One whole reply: a multi-line block through its `end` line, or one
  /// line.
  bool Reply(std::string* reply) {
    std::string line;
    if (!Next(&line)) return false;
    *reply = line;
    const bool block = line.rfind("ok relax ", 0) == 0 ||
                       line.rfind("ok contexts ", 0) == 0 ||
                       line == "ok stats\n";
    while (block && line != "end\n") {
      if (!Next(&line)) return false;
      *reply += line;
    }
    return true;
  }

 private:
  int fd_;
  std::string buffer_;
};

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

/// The reply with its header's `gen=` and `hit=` values blanked: they
/// depend on RELOAD timing and cache state, the answer does not.
std::string Normalized(std::string reply) {
  const size_t header_end = reply.find('\n');
  for (const char* field : {" gen=", " hit="}) {
    const size_t at = reply.find(field);
    if (at == std::string::npos || at > header_end) continue;
    size_t end = at + std::strlen(field);
    while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') {
      ++end;
    }
    reply.erase(at + std::strlen(field), end - at - std::strlen(field));
  }
  return reply;
}

/// The generation an `ok relax` header names; 0 for anything else.
uint64_t ReplyGeneration(const std::string& reply) {
  if (reply.rfind("ok relax ", 0) != 0) return 0;
  const size_t at = reply.find(" gen=");
  return at == std::string::npos
             ? 0
             : std::strtoull(reply.c_str() + at + 5, nullptr, 10);
}

/// RELAX lines over both worlds' instance names: plain, with k=, with a
/// context label, and with a one-character typo.
std::vector<std::string> RelaxLines(const Snapshot& a, const Snapshot& b) {
  std::vector<std::string> lines;
  const std::vector<Context>& contexts = a.ingestion().contexts.contexts();
  for (const Snapshot* snap : {&a, &b}) {
    const auto& mappings = snap->ingestion().mappings;
    for (size_t i = 0; i < mappings.size() && i < 12; ++i) {
      const std::string name =
          snap->kb().instances.instance(mappings[i].first).name;
      switch (i % 4) {
        case 0:
          lines.push_back("RELAX " + name);
          break;
        case 1:
          lines.push_back("RELAX k=3 " + name);
          break;
        case 2:
          lines.push_back("RELAX ctx=" +
                          contexts[i % contexts.size()].Label() + " " + name);
          break;
        default: {
          std::string typo = name;
          typo.erase(typo.size() / 2, 1);
          lines.push_back("RELAX " + typo);
        }
      }
    }
  }
  return lines;
}

TEST(ServeTcp, ReloadStormAgainstThreeLoopsAnswersEveryGeneration) {
  TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string image_a = dir.File("a.img");
  const std::string image_b = dir.File("b.img");
  WriteWorldImage(7, image_a);
  WriteWorldImage(8, image_b);
  std::map<std::string, std::unique_ptr<Reference>> references;
  references[image_a] = std::make_unique<Reference>(image_a);
  references[image_b] = std::make_unique<Reference>(image_b);
  const std::vector<std::string> lines =
      RelaxLines(*references[image_a]->service.snapshot(),
                 *references[image_b]->service.snapshot());

  Result<std::shared_ptr<Snapshot>> boot = Snapshot::LoadFromImage(image_a);
  ASSERT_TRUE(boot.ok()) << boot.status();
  ServiceOptions service_options;
  service_options.cache.capacity = 64;
  RelaxationService service(std::move(*boot), service_options);
  serve::LineProtocol protocol(service, image_a);
  serve::TcpServer server(protocol, /*num_loops=*/3);
  net::LineServerOptions options;
  options.greeting = "hi\n";
  ASSERT_TRUE(server.Start(options).ok());

  // Which image each generation mapped; the boot image is generation 1.
  Mutex generations_mu{"ServeTcpTest::generations_mu"};
  std::map<uint64_t, std::string> generations{{1, image_a}};

  // Four sessions over three loops: three relaxing (pipelining up to
  // four lines at a time) for as long as the fourth reloads between the
  // two images.
  constexpr int kRelaxers = 3;
  constexpr int kRounds = 4;
  constexpr int kReloads = 12;
  std::atomic<bool> reloading{true};
  struct Exchange {
    std::string line;
    std::string reply;
  };
  std::vector<std::vector<Exchange>> exchanges(kRelaxers);
  std::vector<std::thread> clients;
  for (int c = 0; c < kRelaxers; ++c) {
    int server_fd = -1;
    const int fd = ConnectPair(&server_fd);
    ASSERT_GE(fd, 0);
    server.Adopt(server_fd);
    clients.emplace_back([&, c, fd] {
      LineReader reader(fd);
      std::string reply;
      ASSERT_TRUE(reader.Next(&reply));  // greeting
      size_t next = static_cast<size_t>(c) * 5;
      for (int round = 0; round < kRounds || reloading.load(); ++round) {
        for (size_t group = 1; group <= 4; ++group) {
          std::string batch;
          std::vector<std::string> sent;
          for (size_t g = 0; g < group; ++g) {
            sent.push_back(lines[next++ % lines.size()]);
            batch += sent.back() + "\n";
          }
          SendAll(fd, batch);
          for (const std::string& line : sent) {
            ASSERT_TRUE(reader.Reply(&reply)) << "no reply to " << line;
            exchanges[c].push_back({line, reply});
          }
        }
      }
      close(fd);
    });
  }
  {
    int server_fd = -1;
    const int fd = ConnectPair(&server_fd);
    ASSERT_GE(fd, 0);
    server.Adopt(server_fd);
    clients.emplace_back([&, fd] {
      // A failed assertion returns from `storm` only: the relax sessions
      // must still learn that the storm is over.
      auto storm = [&] {
        LineReader reader(fd);
        std::string reply;
        ASSERT_TRUE(reader.Next(&reply));  // greeting
        for (int i = 0; i < kReloads; ++i) {
          const std::string& image = i % 2 == 0 ? image_b : image_a;
          SendAll(fd, "RELOAD " + image + "\nGEN\n");
          ASSERT_TRUE(reader.Reply(&reply));
          const uint64_t generation = std::strtoull(
              reply.c_str() + std::strlen("ok reload gen="), nullptr, 10);
          ASSERT_EQ(reply, StrFormat("ok reload gen=%llu\n",
                                     static_cast<unsigned long long>(
                                         generation)));
          {
            MutexLock lock(generations_mu);
            generations[generation] = image;
          }
          // Replies stay in order: the GEN after the RELOAD sees at least
          // the generation the RELOAD published.
          ASSERT_TRUE(reader.Reply(&reply));
          EXPECT_GE(std::strtoull(reply.c_str() + std::strlen("ok gen="),
                                  nullptr, 10),
                    generation);
        }
      };
      storm();
      reloading.store(false);
      close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(service.snapshot()->generation(), 1u + kReloads);
  std::map<uint64_t, size_t> answered_per_generation;
  for (const std::vector<Exchange>& session : exchanges) {
    EXPECT_GE(session.size(), static_cast<size_t>(kRounds) * 10);
    EXPECT_EQ(session.size() % 10, 0u);
    for (const Exchange& exchange : session) {
      const uint64_t generation = ReplyGeneration(exchange.reply);
      if (generation == 0) {
        // An error reply is the same on both worlds' terms only when both
        // reject it; it must be one the reference gives on some image.
        const std::string got = Normalized(exchange.reply);
        bool matched = false;
        for (auto& [path, reference] : references) {
          matched |= got == Normalized(reference->protocol.Answer(
                                exchange.line, Clock::now()));
        }
        EXPECT_TRUE(matched) << exchange.line << " -> " << exchange.reply;
        continue;
      }
      ASSERT_EQ(generations.count(generation), 1u)
          << "reply names unpublished generation " << generation;
      ++answered_per_generation[generation];
      Reference& reference = *references[generations[generation]];
      EXPECT_EQ(Normalized(exchange.reply),
                Normalized(reference.protocol.Answer(exchange.line,
                                                     Clock::now())))
          << exchange.line << " at gen " << generation;
    }
  }
  EXPECT_FALSE(answered_per_generation.empty());
}

}  // namespace
}  // namespace medrelax
