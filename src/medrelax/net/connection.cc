#include "medrelax/net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "medrelax/common/string_util.h"

namespace medrelax {
namespace net {

Connection::Connection(EventLoop& loop, int fd, uint64_t id,
                       const ConnectionLimits& limits, Handler* handler)
    : loop_(loop),
      fd_(fd),
      id_(id),
      limits_(limits),
      handler_(handler),
      self_(std::make_shared<Connection*>(this)) {}

Connection::~Connection() {
  *self_ = nullptr;  // a still-pending deferred turn becomes a no-op
  if (!closed_ && fd_ >= 0) {
    loop_.Remove(fd_);
    close(fd_);
  }
}

Status Connection::Start() {
  interest_ = EPOLLIN;
  return loop_.Watch(fd_, EPOLLIN, [this](uint32_t events) { OnEvents(events); });
}

void Connection::OnEvents(uint32_t events) {
  if (closed_) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    // Socket error with nothing left to read; flushing is hopeless too.
    DoClose(Status::Internal("socket error (EPOLLERR/EPOLLHUP)"));
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    HandleWritable();
    if (closed_) return;
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) HandleReadable();
}

void Connection::HandleReadable() {
  if (closed_ || paused_ || close_requested_ || turn_deferred_) return;
  char buf[4096];
  // Read only until there is something to serve: the rest stays in the
  // kernel buffer until the lines already here are answered.
  while (!peer_eof_ && !HasBacklog()) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_in += static_cast<uint64_t>(n);
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      peer_eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DoClose(Status::Internal(StrFormat("recv: %s", std::strerror(errno))));
    return;
  }
  ServeOneLine();
}

void Connection::ServeOneLine() {
  if (closed_ || paused_ || close_requested_) return;
  const size_t nl = in_.find('\n', in_pos_);
  const size_t end = nl == std::string::npos ? in_.size() : nl;
  if (end - in_pos_ > limits_.max_line_bytes) {
    // An unframed or hostile client: answer with an error instead of the
    // line, then hang up once the error flushed.
    const Status overflow = Status::ResourceExhausted(
        StrFormat("line exceeds %zu bytes", limits_.max_line_bytes));
    ++stats_.oversize_rejects;
    in_.clear();
    in_pos_ = 0;
    Send("err " + overflow.ToString() + "\n");
    if (closed_) return;
    close_requested_ = true;
    close_reason_ = overflow;
  } else if (nl != std::string::npos || (peer_eof_ && end > in_pos_)) {
    // A complete line, or at EOF the final unterminated one — the stdin
    // transport's getline treats it as a line, so we do too.
    std::string line = in_.substr(in_pos_, end - in_pos_);
    in_pos_ = nl == std::string::npos ? end : nl + 1;
    if (in_pos_ == in_.size()) {
      in_.clear();
      in_pos_ = 0;
    } else if (in_pos_ > 4096 && in_pos_ * 2 >= in_.size()) {
      in_.erase(0, in_pos_);
      in_pos_ = 0;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++stats_.lines_in;
    handler_->OnLine(*this, std::move(line));
    if (closed_) return;
    if (!paused_ && !close_requested_ && !turn_deferred_ && HasBacklog()) {
      turn_deferred_ = true;
      loop_.Defer([self = self_] {
        Connection* conn = *self;
        if (conn == nullptr) return;
        conn->turn_deferred_ = false;
        conn->ServeOneLine();
      });
    }
  }
  UpdateInterest();
  if (closed_) return;
  MaybeFinish();
}

bool Connection::HasBacklog() const {
  const size_t nl = in_.find('\n', in_pos_);
  if (nl != std::string::npos) return true;
  const size_t pending = in_.size() - in_pos_;
  return pending > limits_.max_line_bytes || (peer_eof_ && pending > 0);
}

void Connection::Send(std::string_view data) {
  if (closed_) return;
  out_.append(data);
  TryFlush();
  if (closed_) return;
  if (out_.size() - out_pos_ > limits_.max_write_buffer_bytes) {
    DoClose(Status::ResourceExhausted(
        StrFormat("write buffer exceeds %zu bytes (reader too slow)",
                  limits_.max_write_buffer_bytes)));
  }
}

void Connection::TryFlush() {
  if (closed_) return;
  while (out_pos_ < out_.size()) {
    const ssize_t n = send(fd_, out_.data() + out_pos_,
                           out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      stats_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!want_write_) {
        want_write_ = true;
        ++stats_.writes_deferred;
        UpdateInterest();
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the peer vanished mid-response.
    DoClose(Status::Internal(StrFormat("send: %s", std::strerror(errno))));
    return;
  }
  out_.clear();
  out_pos_ = 0;
  if (want_write_) {
    want_write_ = false;
    UpdateInterest();
  }
}

void Connection::HandleWritable() {
  TryFlush();
  if (closed_) return;
  MaybeFinish();
}

void Connection::Pause() {
  if (closed_ || paused_) return;
  paused_ = true;
  UpdateInterest();
}

void Connection::Resume() {
  if (closed_ || !paused_) return;
  paused_ = false;
  ServeOneLine();
}

void Connection::CloseAfterFlush() {
  if (closed_ || close_requested_) return;
  close_requested_ = true;
  close_reason_ = Status::OK();
  UpdateInterest();
  if (closed_) return;
  TryFlush();
  if (closed_) return;
  MaybeFinish();
}

void Connection::Close(const Status& reason) { DoClose(reason); }

void Connection::UpdateInterest() {
  if (closed_) return;
  uint32_t events = 0;
  if (!paused_ && !peer_eof_ && !close_requested_ && !HasBacklog()) {
    events |= EPOLLIN;
  }
  if (want_write_) events |= EPOLLOUT;
  if (events == interest_) return;
  interest_ = events;
  const Status status = loop_.Modify(fd_, events);
  if (!status.ok()) DoClose(status);
}

void Connection::MaybeFinish() {
  if (closed_ || paused_) return;
  if (out_pos_ < out_.size()) return;  // output still draining
  if (close_requested_) {
    DoClose(close_reason_);
    return;
  }
  if (peer_eof_ && in_pos_ >= in_.size()) DoClose(Status::OK());
}

void Connection::DoClose(const Status& reason) {
  if (closed_) return;
  closed_ = true;
  loop_.Remove(fd_);
  close(fd_);
  fd_ = -1;
  // Must stay last: the handler may schedule this object's destruction.
  handler_->OnClose(*this, reason);
}

}  // namespace net
}  // namespace medrelax
