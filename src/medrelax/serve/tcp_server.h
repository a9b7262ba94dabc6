#ifndef MEDRELAX_SERVE_TCP_SERVER_H_
#define MEDRELAX_SERVE_TCP_SERVER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "medrelax/common/mutex.h"
#include "medrelax/common/status.h"
#include "medrelax/net/event_loop.h"
#include "medrelax/net/line_server.h"
#include "medrelax/serve/line_protocol.h"

namespace medrelax::serve {

/// The TCP transport of medrelax_server: `num_loops` event loops, each on
/// its own thread. The first loop also accepts, and accepted sockets are
/// dealt round-robin to the loops. A loop reads a line, answers it
/// through LineProtocol on its own thread — parse, map, cache probe,
/// relax, format, write — and only then reads that connection's next
/// line; it serves at most one line per connection per turn, so a
/// pipelining client cannot starve the others on its loop.
///
/// RELOAD is the exception: mapping an image takes a few hundred ms, so
/// it runs on one dedicated reload thread while the connection is
/// paused, and the reply is Post()ed back to the loop that owns the
/// connection. Every other session keeps being answered meanwhile.
class TcpServer {
 public:
  /// Answers `protocol` on `num_loops` (at least one) event loops. Each
  /// owns the connections dealt to it and answers their lines run to
  /// completion.
  TcpServer(LineProtocol& protocol, unsigned num_loops);
  /// Stop()s.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Starts the loop threads and binds 127.0.0.1:options.port (0 =
  /// ephemeral). `options` also sets the connection cap (across all
  /// loops), the line limits and the greeting. Every closed connection
  /// prints one accounting line on stderr. Call once.
  [[nodiscard]] Status Start(const net::LineServerOptions& options);

  /// The bound port (after Start).
  [[nodiscard]] uint16_t port() const;

  /// Serves the connected non-blocking socket `fd` like an accepted one.
  /// Thread-safe; call after Start.
  void Adopt(int fd);

  /// Stops and joins the loop threads. Idempotent. Start, Stop and Wait
  /// are for the thread that owns the server.
  void Stop();

  /// Blocks until the loop threads have exited, which they only do after
  /// a Stop: medrelax_server parks its main thread here.
  void Wait();

 private:
  /// One thread draining RELOAD jobs in order, so mapping an image never
  /// runs on a loop. A deque, not a single slot: pile-up is bounded by
  /// the number of paused connections, each of which has at most one
  /// RELOAD in flight.
  class ReloadExecutor {
   public:
    ReloadExecutor();
    /// Drains queued jobs, then joins.
    ~ReloadExecutor();
    ReloadExecutor(const ReloadExecutor&) = delete;
    ReloadExecutor& operator=(const ReloadExecutor&) = delete;
    /// Enqueues `job`. Never blocks beyond the push: safe on a loop.
    void Submit(std::function<void()> job) MEDRELAX_EXCLUDES(mu_);

   private:
    void WorkerLoop() MEDRELAX_EXCLUDES(mu_);

    Mutex mu_{"ReloadExecutor::mu"};
    CondVar cv_;
    std::deque<std::function<void()>> queue_ MEDRELAX_GUARDED_BY(mu_);
    bool stopped_ MEDRELAX_GUARDED_BY(mu_) = false;
    /// Touched only by the constructor and the destructor's join, both on
    /// the owning thread.
    std::thread worker_;  // lint:allow(guarded-by) ctor/join only
  };

  /// The body of a loop thread: EventLoop::Run makes the calling thread
  /// `loop`'s thread.
  static void RunLoop(net::EventLoop* loop) MEDRELAX_LOOP_THREAD_ONLY;
  void OnLine(net::Connection& conn,
              std::string line) MEDRELAX_LOOP_THREAD_ONLY;

  LineProtocol& protocol_;
  // Declaration order is teardown order in reverse: the reload thread is
  // joined first (a late reply Post()s into a stopped but live loop),
  // then the server, then the loops.
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  net::LineServer server_;
  ReloadExecutor reloads_;
  /// Started by Start, joined by Stop or Wait; owner thread only.
  std::vector<std::thread> threads_;
};

}  // namespace medrelax::serve

#endif  // MEDRELAX_SERVE_TCP_SERVER_H_
