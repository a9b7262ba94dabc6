#include "medrelax/net/line_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "medrelax/common/string_util.h"

namespace medrelax {
namespace net {

LineServer::LineServer(std::vector<EventLoop*> loops) {
  shards_.reserve(loops.size());
  for (EventLoop* loop : loops) shards_.push_back(Shard{loop, {}});
}

Status LineServer::Start(const LineServerOptions& options,
                         Callbacks callbacks) {
  options_ = options;
  callbacks_ = std::move(callbacks);
  Result<Acceptor> acceptor = Acceptor::ListenLoopback(options_.port);
  if (!acceptor.ok()) return acceptor.status();
  acceptor_.emplace(std::move(*acceptor));
  return shards_.front().loop->Watch(acceptor_->fd(), EPOLLIN,
                                     [this](uint32_t) { OnAcceptable(); });
}

void LineServer::Adopt(int fd) {
  if (!Dispatch(fd)) close(fd);
}

void LineServer::PostTo(uint64_t conn_id,
                        std::function<void(Connection&)> fn) {
  ShardOf(conn_id).loop->Post([this, conn_id, fn = std::move(fn)] {
    if (Connection* conn = Find(conn_id)) fn(*conn);
  });
}

Connection* LineServer::Find(uint64_t conn_id) {
  Shard& shard = ShardOf(conn_id);
  auto it = shard.connections.find(conn_id);
  if (it == shard.connections.end() || it->second->closed()) return nullptr;
  return it->second.get();
}

LineServerStats LineServer::stats() const {
  LineServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_capacity = rejected_capacity_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  return stats;
}

void LineServer::OnAcceptable() {
  // Level-triggered accept burst: drain the backlog so one wakeup does
  // not serve exactly one connection.
  for (;;) {
    const int fd = acceptor_->AcceptOne();
    if (fd < 0) return;
    if (Dispatch(fd)) continue;
    // Reject, don't buffer. One best-effort error line, then hang up — a
    // client that cannot even get a socket slot must learn why.
    const Status reject = Status::ResourceExhausted(StrFormat(
        "connection limit reached (%zu active)", options_.max_connections));
    const std::string reply = "err " + reject.ToString() + "\n";
    (void)send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    close(fd);
    rejected_capacity_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool LineServer::Dispatch(int fd) {
  size_t active = active_.load(std::memory_order_relaxed);
  do {
    if (active >= options_.max_connections) return false;
  } while (!active_.compare_exchange_weak(active, active + 1,
                                          std::memory_order_acq_rel));
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ShardOf(id).loop->Post([this, id, fd] { Open(id, fd); });
  return true;
}

void LineServer::Open(uint64_t id, int fd) {
  Shard& shard = ShardOf(id);
  auto conn = std::make_unique<Connection>(*shard.loop, fd, id,
                                           options_.limits,
                                           static_cast<Handler*>(this));
  if (Status started = conn->Start(); !started.ok()) {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    return;  // conn's destructor closes the fd
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  Connection& ref = *conn;
  shard.connections.emplace(id, std::move(conn));
  if (!options_.greeting.empty()) ref.Send(options_.greeting);
}

void LineServer::OnLine(Connection& conn, std::string line) {
  if (callbacks_.on_line) callbacks_.on_line(conn, std::move(line));
}

void LineServer::OnClose(Connection& conn, const Status& reason) {
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (callbacks_.on_disconnect) callbacks_.on_disconnect(conn, reason);
  // The close fired from inside the connection's own socket callback, so
  // destruction is deferred one loop turn. The LineServer must outlive
  // pending loop tasks (it does: the server runs its loops to completion,
  // and tests drain with RunOnce before teardown).
  const uint64_t id = conn.id();
  ShardOf(id).loop->Defer([this, id] {
    ShardOf(id).connections.erase(id);
    active_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

}  // namespace net
}  // namespace medrelax
