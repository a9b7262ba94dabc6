#include "medrelax/serve/tcp_server.h"

#include <chrono>
#include <algorithm>
#include <cstdio>
#include <future>
#include <utility>

#include "medrelax/serve/protocol.h"

namespace medrelax::serve {

TcpServer::ReloadExecutor::ReloadExecutor()
    : worker_([this] { WorkerLoop(); }) {}

TcpServer::ReloadExecutor::~ReloadExecutor() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  cv_.NotifyOne();
  if (worker_.joinable()) worker_.join();
}

void TcpServer::ReloadExecutor::Submit(std::function<void()> job) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.NotifyOne();
}

void TcpServer::ReloadExecutor::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopped_) cv_.Wait(mu_);
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Invoked with no lock held: a job maps a whole image, and its
    // completion must be free to take its own locks.
    job();
  }
}

namespace {

std::vector<std::unique_ptr<net::EventLoop>> MakeLoops(unsigned n) {
  std::vector<std::unique_ptr<net::EventLoop>> loops;
  for (unsigned i = 0; i < std::max(1u, n); ++i) {
    loops.push_back(std::make_unique<net::EventLoop>());
  }
  return loops;
}

std::vector<net::EventLoop*> Pointers(
    const std::vector<std::unique_ptr<net::EventLoop>>& loops) {
  std::vector<net::EventLoop*> pointers;
  for (const std::unique_ptr<net::EventLoop>& loop : loops) {
    pointers.push_back(loop.get());
  }
  return pointers;
}

}  // namespace

TcpServer::TcpServer(LineProtocol& protocol, unsigned num_loops)
    : protocol_(protocol),
      loops_(MakeLoops(num_loops)),
      server_(Pointers(loops_)) {}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::RunLoop(net::EventLoop* loop) { loop->Run(); }

Status TcpServer::Start(const net::LineServerOptions& options) {
  for (const std::unique_ptr<net::EventLoop>& loop : loops_) {
    if (!loop->ok()) {
      return Status::Internal("event loop init failed (epoll/eventfd)");
    }
  }

  net::LineServer::Callbacks callbacks;
  callbacks.on_line = [this](net::Connection& conn, std::string line) {
    OnLine(conn, std::move(line));
  };
  callbacks.on_disconnect = [](const net::Connection& conn,
                               const Status& reason) {
    const net::ConnectionStats& counts = conn.stats();
    std::fprintf(stderr,
                 "conn %llu closed (%s): lines_in=%llu bytes_in=%llu"
                 " bytes_out=%llu writes_deferred=%llu\n",
                 static_cast<unsigned long long>(conn.id()),
                 reason.ok() ? "ok" : reason.ToString().c_str(),
                 static_cast<unsigned long long>(counts.lines_in),
                 static_cast<unsigned long long>(counts.bytes_in),
                 static_cast<unsigned long long>(counts.bytes_out),
                 static_cast<unsigned long long>(counts.writes_deferred));
  };
  for (const std::unique_ptr<net::EventLoop>& loop : loops_) {
    threads_.emplace_back(&TcpServer::RunLoop, loop.get());
  }
  // The acceptor is registered by the loop it runs on.
  std::promise<Status> started;
  loops_.front()->Post([&] {
    started.set_value(server_.Start(options, std::move(callbacks)));
  });
  Status status = started.get_future().get();
  if (!status.ok()) Stop();
  return status;
}

uint16_t TcpServer::port() const { return server_.port(); }

void TcpServer::Adopt(int fd) { server_.Adopt(fd); }

void TcpServer::Stop() {
  for (std::unique_ptr<net::EventLoop>& loop : loops_) loop->Stop();
  Wait();
}

void TcpServer::Wait() {
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void TcpServer::OnLine(net::Connection& conn, std::string line) {
  if (line.empty() || line[0] == '#') return;
  const std::chrono::steady_clock::time_point received =
      std::chrono::steady_clock::now();
  const VerbLine split = SplitVerb(line);
  switch (ParseVerb(split.verb)) {
    case Verb::kQuit:
      conn.Send("ok bye\n");
      conn.CloseAfterFlush();
      return;
    case Verb::kReload: {
      // The session waits for its answer, paused; every other session
      // keeps being served by the loops meanwhile.
      conn.Pause();
      std::string path(SplitVerb(split.args).verb);
      reloads_.Submit([this, conn_id = conn.id(), path = std::move(path)] {
        std::string reply = protocol_.Reload(path);
        server_.PostTo(conn_id,
                       [reply = std::move(reply)](net::Connection& target) {
                         target.Send(reply);
                         target.Resume();
                       });
      });
      return;
    }
    default:
      conn.Send(protocol_.Answer(line, received));
      return;
  }
}

}  // namespace medrelax::serve
