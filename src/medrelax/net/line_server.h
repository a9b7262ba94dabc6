#ifndef MEDRELAX_NET_LINE_SERVER_H_
#define MEDRELAX_NET_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "medrelax/common/status.h"
#include "medrelax/net/acceptor.h"
#include "medrelax/net/connection.h"
#include "medrelax/net/event_loop.h"

namespace medrelax {
namespace net {

struct LineServerOptions {
  /// 0 = ephemeral; read the kernel's choice back from port().
  uint16_t port = 0;
  /// Cap on concurrent sessions across all loops: an accept beyond it is
  /// answered with one ResourceExhausted error line and closed.
  size_t max_connections = 64;
  ConnectionLimits limits;
  /// Sent verbatim to every accepted connection (the serving banner, so
  /// a TCP transcript matches the stdin transcript line for line).
  std::string greeting;
};

/// Aggregate acceptance counters.
struct LineServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_capacity = 0;
  uint64_t closed = 0;
};

/// The transport tying Acceptor + Connections to one or more EventLoops:
/// accepts sessions, hands each to a loop round-robin, frames their
/// lines, enforces the connection cap across loops, and routes per-line
/// callbacks to the protocol layer (serve/tcp_server.h).
///
/// The acceptor runs on the first loop; an accepted (or Adopt()ed)
/// socket is Post()ed to its loop, which owns the connection from then
/// on: every callback for it fires on that loop's thread. Each loop's
/// connection table is touched only by that loop. Other threads reach a
/// connection with PostTo(conn_id, ...) — the id survives the
/// connection, a dangling pointer would not.
class LineServer : private Connection::Handler {
 public:
  using LineCallback = std::function<void(Connection&, std::string line)>;
  /// Observes teardown; the connection object is already closed (but
  /// still alive — destruction is deferred past the callback).
  using DisconnectCallback =
      std::function<void(const Connection&, const Status& reason)>;

  /// Protocol-layer hooks; only on_line is required. Every hook fires on
  /// a loop thread (the MEDRELAX_LOOP_THREAD_ONLY on the members is how
  /// the semantic pass knows a lambda bound here is loop-thread code),
  /// so with several loops they must be safe to run concurrently.
  struct Callbacks {
    LineCallback on_line MEDRELAX_LOOP_THREAD_ONLY;
    DisconnectCallback on_disconnect MEDRELAX_LOOP_THREAD_ONLY;
  };

  /// Serves on one loop.
  explicit LineServer(EventLoop& loop) : LineServer(std::vector{&loop}) {}
  /// Serves on `loops` (at least one, each outliving the server).
  explicit LineServer(std::vector<EventLoop*> loops);
  ~LineServer() override = default;

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds 127.0.0.1:options.port and starts accepting on the first
  /// loop. Call on the first loop's thread, or before any loop runs.
  [[nodiscard]] Status Start(const LineServerOptions& options,
                             Callbacks callbacks) MEDRELAX_LOOP_THREAD_ONLY;

  /// Serves the connected socket `fd` (non-blocking, owned from now on)
  /// like an accepted one, on the next loop in the rotation. Thread-safe;
  /// call after Start.
  void Adopt(int fd) MEDRELAX_POSTS_TO_LOOP;

  /// Runs `fn` on the loop that owns connection `conn_id`, with that
  /// connection, unless it is gone by then. Thread-safe.
  void PostTo(uint64_t conn_id, std::function<void(Connection&)> fn)
      MEDRELAX_POSTS_TO_LOOP;

  /// The bound port (after Start).
  [[nodiscard]] uint16_t port() const {
    return acceptor_ ? acceptor_->port() : 0;
  }

  /// Sessions admitted and not yet torn down, across all loops.
  [[nodiscard]] size_t num_connections() const {
    return active_.load(std::memory_order_acquire);
  }
  [[nodiscard]] LineServerStats stats() const;

 private:
  /// One loop and the connections it owns.
  struct Shard {
    EventLoop* loop;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections
        MEDRELAX_LOOP_THREAD_ONLY;
  };

  [[nodiscard]] Shard& ShardOf(uint64_t conn_id) {
    return shards_[(conn_id - 1) % shards_.size()];
  }
  /// The live connection with this id, or nullptr if it is gone. Only on
  /// the thread of the loop that owns it.
  [[nodiscard]] Connection* Find(uint64_t conn_id) MEDRELAX_LOOP_THREAD_ONLY;
  void OnAcceptable() MEDRELAX_LOOP_THREAD_ONLY;
  /// Admits `fd` against the cap and Post()s it to its loop; false (fd
  /// untouched) when the cap is reached.
  bool Dispatch(int fd) MEDRELAX_POSTS_TO_LOOP;
  /// On the owning loop: wraps `fd` in connection `id` and greets it.
  void Open(uint64_t id, int fd) MEDRELAX_LOOP_THREAD_ONLY;
  MEDRELAX_LOOP_THREAD_ONLY void OnLine(Connection& conn,
                                        std::string line) override;
  MEDRELAX_LOOP_THREAD_ONLY void OnClose(Connection& conn,
                                         const Status& reason) override;

  std::vector<Shard> shards_;
  LineServerOptions options_;
  Callbacks callbacks_;
  std::optional<Acceptor> acceptor_;
  /// Ids are dealt in order, and an id's loop is (id - 1) mod #loops:
  /// the rotation and the routing of PostTo in one number.
  std::atomic<uint64_t> next_id_{1};
  /// Admitted sessions not yet erased; Dispatch adds with a
  /// compare-and-swap against the cap, closes subtract.
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_capacity_{0};
  std::atomic<uint64_t> closed_{0};
};

}  // namespace net
}  // namespace medrelax

#endif  // MEDRELAX_NET_LINE_SERVER_H_
