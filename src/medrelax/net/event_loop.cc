#include "medrelax/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "medrelax/common/string_util.h"

namespace medrelax {
namespace net {

namespace {

/// fd in the low half, registration token in the high half: the token
/// lets the dispatcher drop events for an fd that was Remove()d (and
/// possibly reused by a fresh accept) earlier in the same batch.
uint64_t PackEventData(int fd, uint32_t token) {
  return (static_cast<uint64_t>(token) << 32) |
         static_cast<uint32_t>(fd);
}

int UnpackFd(uint64_t data) {
  return static_cast<int>(data & 0xffffffffu);
}

uint32_t UnpackToken(uint64_t data) { return static_cast<uint32_t>(data >> 32); }

}  // namespace

int EventLoop::CreateEpollFd() { return epoll_create1(EPOLL_CLOEXEC); }

int EventLoop::CreateWakeFd(int epoll_fd) {
  if (epoll_fd < 0) return -1;
  const int wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) return -1;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = PackEventData(wake_fd, 0);
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    close(wake_fd);
    return -1;
  }
  return wake_fd;
}

EventLoop::EventLoop()
    : epoll_fd_(CreateEpollFd()), wake_fd_(CreateWakeFd(epoll_fd_)) {}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::Watch(int fd, uint32_t events, IoHandler handler) {
  if (!ok()) return Status::FailedPrecondition("EventLoop failed to init");
  Registration reg{std::move(handler), next_token_++};
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = PackEventData(fd, reg.token);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(ADD, fd=%d): %s", fd, std::strerror(errno)));
  }
  handlers_[fd] = std::move(reg);
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    return Status::NotFound(StrFormat("fd %d is not registered", fd));
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = PackEventData(fd, it->second.token);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(MOD, fd=%d): %s", fd, std::strerror(errno)));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  // The fd may already be closed (EPOLL_CTL_DEL then fails with EBADF);
  // either way it no longer delivers events, so errors are ignorable.
  epoll_event ev{};
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::Post(Task task) {
  {
    MutexLock lock(wakeup_mu_);
    tasks_.push_back(std::move(task));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing lost.
  (void)write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Defer(Task task) { deferred_.push_back(std::move(task)); }

void EventLoop::DrainWakeupFd() {
  uint64_t counter = 0;
  // Resets the eventfd counter; EAGAIN when another drain got it first.
  (void)read(wake_fd_, &counter, sizeof(counter));
}

int EventLoop::RunTasks() {
  // A vector: swapping in an empty one allocates nothing, so a turn
  // without posted tasks costs one uncontended lock.
  std::vector<Task> ready;
  {
    MutexLock lock(wakeup_mu_);
    ready.swap(tasks_);
  }
  for (Task& task : ready) task();
  return static_cast<int>(ready.size());
}

int EventLoop::RunOnce(int timeout_ms) {
  if (!ok()) return -1;
  // Tasks deferred during this turn run in the next one.
  std::vector<Task> deferred;
  deferred.swap(deferred_);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int n = epoll_wait(epoll_fd_, events, kMaxEvents,
                     deferred.empty() ? timeout_ms : 0);
  if (n < 0) {
    if (errno != EINTR) return -1;
    n = 0;
  }
  int handled = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = UnpackFd(events[i].data.u64);
    const uint32_t token = UnpackToken(events[i].data.u64);
    if (fd == wake_fd_) {
      DrainWakeupFd();
      handled += RunTasks();
      continue;
    }
    auto it = handlers_.find(fd);
    if (it == handlers_.end() || it->second.token != token) {
      continue;  // removed (or removed-and-reused) during this batch
    }
    // Copy: the handler may Remove() its own fd mid-call.
    IoHandler handler = it->second.handler;
    handler(events[i].events);
    ++handled;
  }
  // Post() can race the epoll_wait above; drain opportunistically so a
  // task enqueued while we dispatched io events does not wait a turn.
  handled += RunTasks();
  for (Task& task : deferred) task();
  return handled + static_cast<int>(deferred.size());
}

void EventLoop::Run() {
  while (!stopped_.load(std::memory_order_acquire)) {
    if (RunOnce(-1) < 0) break;
  }
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  (void)write(wake_fd_, &one, sizeof(one));  // wake the blocked epoll_wait
}

}  // namespace net
}  // namespace medrelax
