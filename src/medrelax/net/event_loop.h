#ifndef MEDRELAX_NET_EVENT_LOOP_H_
#define MEDRELAX_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "medrelax/common/mutex.h"
#include "medrelax/common/status.h"

namespace medrelax {
namespace net {

/// Single-threaded epoll reactor: the one thread that calls Run() (or
/// RunOnce()) owns every registered fd and every Connection hanging off
/// it. All state except the cross-thread wakeup queue is therefore
/// unsynchronized by design — the loop thread is the synchronization
/// domain, exactly like the snapshot swap makes the serving bundle one.
///
/// The only way other threads talk to the loop is Post(): a task queue
/// guarded by an annotated Mutex plus an eventfd that wakes the epoll
/// wait. Other threads use it to hand the loop a freshly accepted socket
/// or a finished RELOAD's reply; they never touch a socket
/// (docs/SERVING.md, "TCP transport").
///
/// One RunOnce() call is one turn: wait for I/O, dispatch it, run the
/// Post()ed tasks, then run the tasks Defer()red before the turn began.
/// A connection with more buffered lines Defer()s itself, so it is
/// served again next turn, after every other ready connection had its
/// chance.
///
/// Registrations carry a generation token in the epoll user data, so an
/// event for an fd that was closed (and possibly reused) earlier in the
/// same epoll_wait batch is recognized as stale and dropped instead of
/// being delivered to the new owner.
class EventLoop {
 public:
  /// Invoked on the loop thread with the ready EPOLL* event mask.
  using IoHandler = std::function<void(uint32_t epoll_events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when epoll/eventfd creation failed at construction; every
  /// other method is a safe no-op (or error) in that state.
  [[nodiscard]] bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  /// Registers `fd` for the level-triggered `events` mask. Loop thread
  /// only (as are Modify and Remove); `handler` fires on the loop thread.
  [[nodiscard]] Status Watch(int fd, uint32_t events, IoHandler handler)
      MEDRELAX_LOOP_THREAD_ONLY MEDRELAX_POSTS_TO_LOOP;
  /// Changes the interest mask of a registered fd (0 parks it).
  [[nodiscard]] Status Modify(int fd, uint32_t events)
      MEDRELAX_LOOP_THREAD_ONLY;
  /// Deregisters `fd`; pending events already fetched for it are dropped.
  void Remove(int fd) MEDRELAX_LOOP_THREAD_ONLY;

  /// Enqueues `task` to run on the loop thread and wakes the loop.
  /// Thread-safe; the only EventLoop entry point that is.
  void Post(Task task) MEDRELAX_POSTS_TO_LOOP;

  /// Runs `task` at the end of the next turn, which then polls instead of
  /// blocking. Loop thread only: no lock, no wakeup syscall.
  void Defer(Task task) MEDRELAX_LOOP_THREAD_ONLY MEDRELAX_POSTS_TO_LOOP;

  /// Runs until Stop(). Blocks the calling thread, which becomes *the*
  /// loop thread.
  void Run() MEDRELAX_LOOP_THREAD_ONLY;

  /// One turn: an epoll_wait pass that dispatches ready events, drained
  /// Post()ed tasks and the tasks Defer()red before the turn; returns how
  /// many it handled. `timeout_ms` < 0 blocks until something is ready;
  /// 0 polls, and so does any turn with deferred tasks. The unit-test
  /// driver.
  int RunOnce(int timeout_ms) MEDRELAX_LOOP_THREAD_ONLY;

  /// Makes Run() return soon. Thread-safe and idempotent.
  void Stop();

  [[nodiscard]] bool stopped() const {
    return stopped_.load(std::memory_order_acquire);
  }

 private:
  struct Registration {
    IoHandler handler;
    uint32_t token = 0;
  };

  /// Creates the epoll instance (-1 on failure); a plain function so the
  /// fd members can be const — immutable after construction, no guard.
  static int CreateEpollFd();
  /// Creates the wakeup eventfd and registers it with `epoll_fd`;
  /// returns -1 (closing the eventfd) when either step fails.
  static int CreateWakeFd(int epoll_fd);

  void DrainWakeupFd() MEDRELAX_LOOP_THREAD_ONLY;
  int RunTasks() MEDRELAX_LOOP_THREAD_ONLY;

  const int epoll_fd_;
  const int wake_fd_;
  uint32_t next_token_ MEDRELAX_LOOP_THREAD_ONLY = 1;
  std::atomic<bool> stopped_{false};
  // fd -> registration; loop-thread-only like everything but the queue.
  std::unordered_map<int, Registration> handlers_ MEDRELAX_LOOP_THREAD_ONLY;
  std::vector<Task> deferred_ MEDRELAX_LOOP_THREAD_ONLY;

  Mutex wakeup_mu_{"EventLoop::wakeup_mu"};
  std::vector<Task> tasks_ MEDRELAX_GUARDED_BY(wakeup_mu_);
};

}  // namespace net
}  // namespace medrelax

#endif  // MEDRELAX_NET_EVENT_LOOP_H_
