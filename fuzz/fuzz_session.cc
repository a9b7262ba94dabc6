// libFuzzer harness for whole serving sessions: a differential test of
// the TCP transport. Each input is a small program that boots an
// in-process serve::TcpServer with 1-3 event loops on a committed tiny
// image (fuzz/data/session_a.img; session_b.img is the other RELOAD
// target), connects 1-3 clients over socketpairs, and interleaves what
// they send: RELAX lines with typos, k= and context labels (spaced ones
// too), RELOADs between the two images (and of a missing one), STATS,
// GEN, CONTEXTS, fuzzer-chosen raw lines, oversized lines, pipelined
// bursts cut at arbitrary bytes, half-closes and abrupt disconnects.
//
// Once input stops (every client half-closes or hangs up), the oracle:
//   * every session that was not cut off ends, with EOF, within a
//     deadline — no session hangs;
//   * every line gets exactly one reply, in order (blank and '#' lines
//     none; an oversized line an error and then nothing; QUIT `ok bye`
//     and then nothing), and nothing else is sent;
//   * every `ok relax` reply equals, but for its gen= and hit= fields,
//     what the image of the generation it names answers in-process.
// A violation aborts, which libFuzzer and replay_main both report.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "medrelax/serve/line_protocol.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/tcp_server.h"

namespace {

using medrelax::RelaxationService;
using medrelax::ServiceOptions;
using medrelax::Snapshot;
using Clock = std::chrono::steady_clock;

const std::string kImageA = MEDRELAX_FUZZ_DATA_DIR "/session_a.img";
const std::string kImageB = MEDRELAX_FUZZ_DATA_DIR "/session_b.img";
const std::string kMissingImage = MEDRELAX_FUZZ_DATA_DIR "/missing.img";

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "fuzz_session: %s\n", what.c_str());
  std::abort();
}

/// An image answered in-process by a fresh service: the reference every
/// wire reply naming that image is checked against.
struct Reference {
  explicit Reference(const std::string& path)
      : service(Load(path), ServiceOptions{}), protocol(service, path) {}
  static std::shared_ptr<Snapshot> Load(const std::string& path) {
    medrelax::Result<std::shared_ptr<Snapshot>> snap =
        Snapshot::LoadFromImage(path);
    if (!snap.ok()) {
      Fail("cannot load " + path + ": " + snap.status().ToString());
    }
    return *snap;
  }
  RelaxationService service;
  medrelax::serve::LineProtocol protocol;
};

/// Both references and the vocabulary the programs draw from, built once.
struct World {
  World() : a(kImageA), b(kImageB) {
    for (const Reference* ref : {&a, &b}) {
      std::shared_ptr<const Snapshot> snap = ref->service.snapshot();
      for (const auto& [instance, concept_id] : snap->ingestion().mappings) {
        (void)concept_id;
        terms.push_back(snap->kb().instances.instance(instance).name);
        if (terms.size() % 32 == 0) break;
      }
      for (const medrelax::Context& c : snap->ingestion().contexts.contexts()) {
        if (ref == &a) labels.push_back(c.Label());
      }
    }
  }
  Reference a;
  Reference b;
  std::vector<std::string> terms;
  std::vector<std::string> labels;
};

World& TheWorld() {
  static World world;
  return world;
}

/// Bytes of the input, read front to back; zeros once exhausted.
class Program {
 public:
  Program(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  [[nodiscard]] bool done() const { return pos_ >= size_; }
  uint8_t Byte() { return pos_ < size_ ? data_[pos_++] : 0; }
  size_t Pick(size_t n) { return n == 0 ? 0 : Byte() % n; }
  std::string Bytes(size_t n) {
    std::string out;
    while (out.size() < n && !done()) {
      out.push_back(static_cast<char>(Byte()));
    }
    return out;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

struct Client {
  int fd = -1;
  std::string pending;   // composed, not yet sent
  std::string sent;      // every byte sent so far
  bool open = true;      // may still send
  bool hung_up = false;  // closed abruptly: no replies to check
};

void SendAll(Client& client, std::string_view bytes) {
  client.sent.append(bytes);
  while (!bytes.empty()) {
    const ssize_t n =
        send(client.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return;  // the server hung up (oversized line, QUIT)
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

std::string RelaxLine(Program& p, const World& world) {
  std::string line = "RELAX";
  if (p.Pick(4) == 0) line += " k=" + std::to_string(p.Pick(14));
  if (p.Pick(3) == 0) {
    line += " ctx=" + world.labels[p.Pick(world.labels.size())];
  }
  std::string term = world.terms[p.Pick(world.terms.size())];
  switch (p.Pick(5)) {
    case 0:
      term.erase(p.Pick(term.size()), 1);
      break;
    case 1:
      term[p.Pick(term.size())] = static_cast<char>('a' + p.Pick(26));
      break;
    case 2:
      term.insert(p.Pick(term.size() + 1), 1,
                  static_cast<char>('a' + p.Pick(26)));
      break;
    default:
      break;
  }
  return line + " " + term + (p.Pick(8) == 0 ? "\r\n" : "\n");
}

std::string ControlLine(Program& p) {
  static const char* const kLines[] = {
      "STATS\n", "GEN\n", "CONTEXTS\n", "FROBNICATE\n", "\n", "# note\n",
      "   \n",    "QUIT\n"};
  return kLines[p.Pick(sizeof(kLines) / sizeof(kLines[0]))];
}

/// Fuzzer bytes as one line. A RELOAD among them would name an arbitrary
/// path (a FIFO would block the reload thread), so it is commented out.
std::string RawLine(Program& p) {
  std::string raw = p.Bytes(p.Pick(40));
  std::string out;
  size_t start = 0;
  while (start <= raw.size()) {
    size_t nl = raw.find('\n', start);
    if (nl == std::string::npos) nl = raw.size();
    std::string_view line(raw.data() + start, nl - start);
    if (medrelax::serve::SplitVerb(line).verb == "RELOAD") out += "#";
    out.append(line);
    if (nl < raw.size()) out += '\n';
    start = nl + 1;
  }
  return out + "\n";
}

/// Reads every client's replies until EOF; aborts past the deadline.
std::vector<std::string> DrainAll(std::vector<Client>& clients) {
  std::vector<std::string> out(clients.size());
  std::vector<bool> eof(clients.size(), false);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<size_t> who;
    for (size_t i = 0; i < clients.size(); ++i) {
      if (clients[i].hung_up || eof[i]) continue;
      fds.push_back(pollfd{clients[i].fd, POLLIN, 0});
      who.push_back(i);
    }
    if (fds.empty()) return out;
    if (Clock::now() > deadline) Fail("a session hung after its input stopped");
    if (poll(fds.data(), fds.size(), 100) < 0) continue;
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      char buf[4096];
      const ssize_t n = recv(fds[k].fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        out[who[k]].append(buf, static_cast<size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        eof[who[k]] = true;
      }
    }
  }
}

/// The reply with its header's gen= and hit= values blanked.
std::string Normalized(std::string reply) {
  const size_t header_end = reply.find('\n');
  for (const char* field : {" gen=", " hit="}) {
    const size_t at = reply.find(field);
    if (at == std::string::npos || at > header_end) continue;
    const size_t digits = at + std::strlen(field);
    size_t end = digits;
    while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') {
      ++end;
    }
    reply.erase(digits, end - digits);
  }
  return reply;
}

/// Pops one reply off `*stream`: through its `end` line when its header
/// opens a block, else one line. Empty when the stream is exhausted.
std::string NextReply(std::string_view* stream) {
  size_t end = stream->find('\n');
  if (end == std::string_view::npos) return {};
  const std::string_view header = stream->substr(0, end + 1);
  if (header.starts_with("ok relax ") || header.starts_with("ok contexts ") ||
      header == "ok stats\n") {
    const size_t close = stream->find("\nend\n", end);
    if (close == std::string_view::npos) return {};
    end = close + 4;
  }
  std::string reply(stream->substr(0, end + 1));
  stream->remove_prefix(end + 1);
  return reply;
}

/// Checks the replies to one session's lines, in order.
struct Checker {
  World& world;
  size_t max_line;
  /// Generation -> image, for RELOAD <path>; nullptr = either image (a
  /// plain RELOAD re-maps whichever image was last named).
  std::map<uint64_t, Reference*>* generations;
  /// RELAX lines with their replies, checked once every RELOAD is known.
  std::vector<std::pair<std::string, std::string>>* relaxes;

  /// Pops and checks the reply to `raw`, one framed line ('\n' cut,
  /// '\r' kept); false when the session ends with it.
  bool Check(std::string raw, std::string_view* stream) {
    if (raw.size() > max_line) {
      Expect(NextReply(stream),
             "err ResourceExhausted: line exceeds " +
                 std::to_string(max_line) + " bytes\n",
             raw);
      return false;
    }
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.empty() || raw[0] == '#') return true;
    const medrelax::serve::VerbLine split = medrelax::serve::SplitVerb(raw);
    const std::string reply = NextReply(stream);
    if (reply.empty()) Fail("no reply to '" + raw + "'");
    switch (medrelax::serve::ParseVerb(split.verb)) {
      case medrelax::serve::Verb::kQuit:
        Expect(reply, "ok bye\n", raw);
        return false;
      case medrelax::serve::Verb::kRelax:
        relaxes->emplace_back(raw, reply);
        return true;
      case medrelax::serve::Verb::kReload: {
        const std::string path(medrelax::serve::SplitVerb(split.args).verb);
        if (path == kMissingImage) {
          if (!reply.starts_with("err NotFound: ")) {
            Fail("RELOAD of a missing image -> " + reply);
          }
          return true;
        }
        unsigned long long generation = 0;
        if (std::sscanf(reply.c_str(), "ok reload gen=%llu", &generation) !=
            1) {
          Fail("RELOAD '" + path + "' -> " + reply);
        }
        Reference* image = path == kImageA   ? &world.a
                           : path == kImageB ? &world.b
                                             : nullptr;
        (*generations)[generation] = image;
        return true;
      }
      case medrelax::serve::Verb::kGen:
        if (!reply.starts_with("ok gen=")) Fail("GEN -> " + reply);
        return true;
      case medrelax::serve::Verb::kStats:
        if (reply.find("\nrequests=") == std::string::npos) {
          Fail("STATS -> " + reply);
        }
        return true;
      default:  // CONTEXTS or an unknown verb: the same on either image
        if (reply != world.a.protocol.Answer(raw, Clock::now()) &&
            reply != world.b.protocol.Answer(raw, Clock::now())) {
          Fail("'" + raw + "' -> '" + reply + "' matches no image's answer");
        }
        return true;
    }
  }

  static void Expect(const std::string& got, const std::string& want,
                     const std::string& line) {
    if (got != want) {
      Fail("'" + line + "' -> '" + got + "', want '" + want + "'");
    }
  }
};

/// `reply` to RELAX `line` must be what some image in `candidates`
/// answers in-process.
void CheckRelax(const std::string& line, const std::string& reply,
                const std::vector<Reference*>& candidates) {
  if (reply.starts_with("err DeadlineExceeded:")) {
    medrelax::Result<medrelax::serve::RelaxLine> parsed =
        medrelax::serve::ParseRelaxArgs(medrelax::serve::SplitVerb(line).args);
    if (parsed.ok() && parsed->timeout_ms != 0) return;  // a real budget
  }
  const std::string got = Normalized(reply);
  for (Reference* ref : candidates) {
    const std::string want = ref->protocol.Answer(line, Clock::now());
    if (want.starts_with("err DeadlineExceeded:") || got == Normalized(want)) {
      return;
    }
  }
  Fail("'" + line + "' -> '" + reply + "' matches no image's answer");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  World& world = TheWorld();
  Program p(data, size);
  const size_t num_loops = 1 + p.Pick(3);
  const size_t num_clients = 1 + p.Pick(3);
  static const size_t kMaxLines[] = {48, 96, 1024};
  const size_t max_line = kMaxLines[p.Pick(3)];

  ServiceOptions service_options;
  service_options.cache.capacity = p.Pick(2) == 0 ? 0 : 16;
  RelaxationService service(Reference::Load(kImageA), service_options);
  medrelax::serve::LineProtocol protocol(service, kImageA);
  medrelax::serve::TcpServer server(protocol,
                                    static_cast<unsigned>(num_loops));
  medrelax::net::LineServerOptions options;
  options.limits.max_line_bytes = max_line;
  if (!server.Start(options).ok()) Fail("server start failed");

  std::vector<Client> clients(num_clients);
  for (Client& client : clients) {
    int fds[2] = {-1, -1};
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0 ||
        fcntl(fds[1], F_SETFL, O_NONBLOCK) != 0) {
      Fail("socketpair failed");
    }
    client.fd = fds[0];
    server.Adopt(fds[1]);
  }

  for (int op = 0; op < 64 && !p.done(); ++op) {
    Client& client = clients[p.Pick(num_clients)];
    const size_t kind = p.Pick(11);
    if (!client.open) continue;
    switch (kind) {
      case 0:
      case 1:
      case 2:
        client.pending += RelaxLine(p, world);
        break;
      case 3: {
        static const std::string* const kPaths[] = {&kImageA, &kImageB,
                                                    &kMissingImage};
        client.pending += p.Pick(4) == 0
                              ? std::string("RELOAD\n")
                              : "RELOAD " + *kPaths[p.Pick(3)] + "\n";
        break;
      }
      case 4:
        client.pending += ControlLine(p);
        break;
      case 5:
        client.pending += RawLine(p);
        break;
      case 6:
        client.pending += std::string(max_line + 1 + p.Pick(64), 'x') + "\n";
        break;
      case 7:
      case 8: {
        // Send a prefix now, possibly mid-line; the rest stays pending.
        const size_t cut = client.pending.empty()
                               ? 0
                               : client.pending.size() -
                                     p.Pick(client.pending.size());
        SendAll(client, std::string_view(client.pending).substr(0, cut));
        client.pending.erase(0, cut);
        break;
      }
      case 9:
        SendAll(client, client.pending);
        client.pending.clear();
        shutdown(client.fd, SHUT_WR);
        client.open = false;
        break;
      default:
        close(client.fd);
        client.fd = -1;
        client.open = false;
        client.hung_up = true;
        break;
    }
  }
  for (Client& client : clients) {
    if (!client.open) continue;
    SendAll(client, client.pending);
    shutdown(client.fd, SHUT_WR);
  }
  const std::vector<std::string> output = DrainAll(clients);
  server.Stop();

  std::map<uint64_t, Reference*> generations{{1, &world.a}};
  std::vector<std::pair<std::string, std::string>> relaxes;
  Checker checker{world, max_line, &generations, &relaxes};
  for (size_t i = 0; i < clients.size(); ++i) {
    if (clients[i].hung_up) continue;
    close(clients[i].fd);
    std::string_view stream(output[i]);
    // The greeting is empty: the first bytes are the first reply.
    std::string_view input(clients[i].sent);
    while (!input.empty()) {
      size_t nl = input.find('\n');
      const bool framed = nl != std::string_view::npos;
      if (!framed) nl = input.size();
      const bool more =
          checker.Check(std::string(input.substr(0, nl)), &stream);
      input.remove_prefix(framed ? nl + 1 : nl);
      if (!more) break;
    }
    if (!stream.empty()) {
      Fail("unexpected output after the last reply: '" + std::string(stream) +
           "'");
    }
  }
  for (const auto& [line, reply] : relaxes) {
    uint64_t generation = 0;
    if (reply.starts_with("ok relax ")) {
      const size_t at = reply.find(" gen=");
      generation = std::strtoull(reply.c_str() + at + 5, nullptr, 10);
      auto it = generations.find(generation);
      if (it == generations.end()) {
        Fail("reply names an unpublished generation: " + reply);
      }
      if (it->second != nullptr) {
        CheckRelax(line, reply, {it->second});
        continue;
      }
    } else if (!reply.starts_with("err ")) {
      Fail("RELAX -> " + reply);
    }
    CheckRelax(line, reply, {&world.a, &world.b});
  }
  return 0;
}
