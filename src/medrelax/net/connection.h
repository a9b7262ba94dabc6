#ifndef MEDRELAX_NET_CONNECTION_H_
#define MEDRELAX_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "medrelax/common/status.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/net/event_loop.h"

namespace medrelax {
namespace net {

/// Resource bounds of one connection. Exceeding either rejects with
/// ResourceExhausted and closes the connection.
struct ConnectionLimits {
  /// A line (command) longer than this many bytes, its '\n' not counted,
  /// is answered with an error and the connection closed once the replies
  /// to the lines before it are out — an unframed client would otherwise
  /// grow the read buffer without bound.
  size_t max_line_bytes = 16 * 1024;
  /// Write-buffer high-water mark. A reader this far behind is cut off:
  /// the buffer is the transport's admission queue, and admission
  /// control means failing fast, not buffering forever.
  size_t max_write_buffer_bytes = 8 * 1024 * 1024;
};

/// Counters one connection accumulates over its lifetime; read them in
/// OnClose for the per-connection accounting line.
struct ConnectionStats {
  uint64_t lines_in = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Sends that could not complete inline and armed EPOLLOUT.
  uint64_t writes_deferred = 0;
  /// Oversized-line rejections (at most one: the connection closes).
  uint64_t oversize_rejects = 0;
};

/// One accepted socket: reads into a buffer, reassembles '\n'-framed
/// lines (a trailing '\r' is stripped for telnet/netcat friendliness),
/// and hands complete lines to the handler in arrival order. Writes go
/// through an output buffer flushed opportunistically; when the socket
/// backs up, EPOLLOUT is armed and the remainder drains as the peer
/// catches up (and is de-armed once empty, so an idle connection costs
/// no wakeups).
///
/// Fairness: a connection hands the handler at most one line per loop
/// turn. While it still buffers complete lines it stops reading (the
/// kernel buffer is the backpressure) and EventLoop::Defer()s itself to
/// serve the next one a turn later, so a client that pipelines a
/// thousand lines cannot starve the other connections on its loop.
///
/// Single-threaded: every method must be called on the EventLoop thread.
/// Cross-thread completions reach a connection by Post()ing to the loop.
///
/// Lifetime: after OnClose fires the connection delivers nothing more,
/// but the object stays valid until its owner destroys it — owners that
/// destroy from inside OnClose must defer with EventLoop::Post, because
/// the socket callback that triggered the close is still on the stack
/// (LineServer does exactly this).
class Connection {
 public:
  class Handler {
   public:
    virtual ~Handler() = default;
    /// One complete inbound line, framing stripped. Loop thread.
    MEDRELAX_LOOP_THREAD_ONLY virtual void OnLine(Connection& conn,
                                                  std::string line) = 0;
    /// The connection is torn down (fd closed, deregistered): orderly
    /// EOF/CloseAfterFlush is OK(); limit violations and socket errors
    /// carry the typed reason. Fires at most once, on the loop thread.
    MEDRELAX_LOOP_THREAD_ONLY virtual void OnClose(Connection& conn,
                                                   const Status& reason) = 0;
  };

  /// Takes ownership of `fd` (non-blocking). Call Start() to begin.
  Connection(EventLoop& loop, int fd, uint64_t id,
             const ConnectionLimits& limits, Handler* handler);
  /// Deregisters from the loop; connections live and die on the loop
  /// thread (LineServer erases them from its map inside OnEvents).
  ~Connection() MEDRELAX_LOOP_THREAD_ONLY;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop for reads.
  [[nodiscard]] Status Start() MEDRELAX_LOOP_THREAD_ONLY;

  /// Buffers `data` and flushes as much as the socket accepts now; the
  /// rest drains via EPOLLOUT. No-op after close.
  void Send(std::string_view data) MEDRELAX_LOOP_THREAD_ONLY;

  /// Stops reading and line delivery; an async request (a RELOAD) is in
  /// flight and its reply must precede any later command (pipelined input
  /// stays buffered in the kernel — that is the backpressure).
  void Pause() MEDRELAX_LOOP_THREAD_ONLY;

  /// Resumes: serves the next buffered line now and the rest on later
  /// turns.
  void Resume() MEDRELAX_LOOP_THREAD_ONLY;

  /// Orderly shutdown: no further lines are delivered, buffered output
  /// drains, then the socket closes and OnClose(OK) fires.
  void CloseAfterFlush() MEDRELAX_LOOP_THREAD_ONLY;

  /// Immediate teardown with `reason` (also the path limits take).
  void Close(const Status& reason) MEDRELAX_LOOP_THREAD_ONLY;

  [[nodiscard]] uint64_t id() const { return id_; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] size_t pending_out_bytes() const { return out_.size(); }
  [[nodiscard]] const ConnectionStats& stats() const { return stats_; }

 private:
  void OnEvents(uint32_t events) MEDRELAX_LOOP_THREAD_ONLY;
  /// Reads until EAGAIN/EOF, a complete line or an oversized partial one
  /// is buffered; then serves one line.
  void HandleReadable() MEDRELAX_LOOP_THREAD_ONLY;
  /// Flushes the write buffer; de-arms EPOLLOUT when drained.
  void HandleWritable() MEDRELAX_LOOP_THREAD_ONLY;
  /// This connection's turn: hands the handler at most one line (or
  /// rejects an oversized one), then defers itself if more are buffered.
  void ServeOneLine() MEDRELAX_LOOP_THREAD_ONLY;
  /// True while in_ holds something to serve without reading: a complete
  /// line, an oversized partial one, or a final unterminated line after
  /// EOF.
  [[nodiscard]] bool HasBacklog() const;
  /// Flushes out_ to the socket; closes (slow-reader/error) on failure.
  void TryFlush() MEDRELAX_LOOP_THREAD_ONLY;
  /// Recomputes and applies the epoll interest mask.
  void UpdateInterest() MEDRELAX_LOOP_THREAD_ONLY;
  /// Closes once teardown conditions hold (flushed + nothing pending).
  void MaybeFinish() MEDRELAX_LOOP_THREAD_ONLY;
  void DoClose(const Status& reason) MEDRELAX_LOOP_THREAD_ONLY;

  EventLoop& loop_;
  int fd_;
  const uint64_t id_;
  const ConnectionLimits limits_;
  Handler* const handler_;

  // Unconsumed inbound bytes — attacker-controlled until framed.
  std::string in_ MEDRELAX_UNTRUSTED_BYTES;
  size_t in_pos_ = 0;     // consumed prefix of in_ (compacted lazily)
  std::string out_;       // unflushed outbound bytes
  size_t out_pos_ = 0;

  // Points at this object until the destructor runs: a deferred turn
  // holds a copy, so it can tell a live connection from a destroyed one.
  std::shared_ptr<Connection*> self_;
  bool turn_deferred_ = false;  // a deferred ServeOneLine is pending
  uint32_t interest_ = 0;       // the mask last registered with the loop
  bool want_write_ = false;  // EPOLLOUT currently armed
  bool paused_ = false;
  bool peer_eof_ = false;    // read side saw EOF
  bool close_requested_ = false;
  bool closed_ = false;
  Status close_reason_;

  ConnectionStats stats_;
};

}  // namespace net
}  // namespace medrelax

#endif  // MEDRELAX_NET_CONNECTION_H_
