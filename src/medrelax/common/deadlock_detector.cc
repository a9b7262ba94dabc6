#include "medrelax/common/deadlock_detector.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace medrelax {

namespace {

/// The calling thread's stack of held sites, in acquisition order.
std::vector<int>& HeldStack() {
  static thread_local std::vector<int> stack;
  return stack;
}

}  // namespace

DeadlockDetector& DeadlockDetector::Instance() {
  static DeadlockDetector* instance =
      new DeadlockDetector();  // lint:allow(raw-new-delete) leaked singleton:
                               // mutexes may unregister during static
                               // destruction, so the graph must outlive them
  return *instance;
}

int DeadlockDetector::RegisterSite(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      site_ids_.emplace(name, static_cast<int>(site_names_.size()));
  if (inserted) {
    site_names_.emplace_back(name);
    edges_.emplace_back();
  }
  return it->second;
}

std::string DeadlockDetector::SiteName(int site) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (site < 0 || site >= static_cast<int>(site_names_.size())) {
    return "<unknown site>";
  }
  return site_names_[static_cast<size_t>(site)];
}

int DeadlockDetector::num_sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(site_names_.size());
}

void DeadlockDetector::OnAcquire(int site) {
  std::vector<int>& held = HeldStack();
  if (!held.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h : held) {
      // Per-site granularity: two instances sharing a site are never
      // ordered against each other (see the class comment).
      if (h == site) continue;
      std::vector<int>& out = edges_[static_cast<size_t>(h)];
      if (std::find(out.begin(), out.end(), site) != out.end()) continue;
      if (PathExistsLocked(site, h)) ReportCycleLocked(h, site);
      out.push_back(site);
    }
  }
  held.push_back(site);
}

void DeadlockDetector::OnRelease(int site) {
  std::vector<int>& held = HeldStack();
  // Release the most recent matching acquisition; out-of-order release of
  // distinct sites (legal, if unusual) still unwinds correctly.
  auto it = std::find(held.rbegin(), held.rend(), site);
  if (it != held.rend()) held.erase(std::next(it).base());
}

bool DeadlockDetector::HasEdge(int before, int after) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (before < 0 || before >= static_cast<int>(edges_.size())) return false;
  const std::vector<int>& out = edges_[static_cast<size_t>(before)];
  return std::find(out.begin(), out.end(), after) != out.end();
}

bool DeadlockDetector::PathExists(int from, int to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PathExistsLocked(from, to);
}

std::vector<int> DeadlockDetector::HeldByThisThread() const {
  return HeldStack();
}

void DeadlockDetector::ResetEdgesForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::vector<int>& out : edges_) out.clear();
}

bool DeadlockDetector::PathExistsLocked(int from, int to) const {
  if (from < 0 || from >= static_cast<int>(edges_.size())) return false;
  if (from == to) return true;
  std::vector<bool> visited(edges_.size(), false);
  std::vector<int> frontier{from};
  visited[static_cast<size_t>(from)] = true;
  while (!frontier.empty()) {
    const int node = frontier.back();
    frontier.pop_back();
    for (int next : edges_[static_cast<size_t>(node)]) {
      if (next == to) return true;
      if (!visited[static_cast<size_t>(next)]) {
        visited[static_cast<size_t>(next)] = true;
        frontier.push_back(next);
      }
    }
  }
  return false;
}

void DeadlockDetector::ReportCycleLocked(int held, int acquiring) const {
  // Recover one acquiring ->* held path by DFS, keeping the trail.
  std::vector<int> path{acquiring};
  std::vector<bool> visited(edges_.size(), false);
  visited[static_cast<size_t>(acquiring)] = true;
  // Depth-first with an explicit trail; the path is known to exist.
  struct Frame {
    int node;
    size_t next_edge;
  };
  std::vector<Frame> stack{{acquiring, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.node == held) break;
    const std::vector<int>& out = edges_[static_cast<size_t>(frame.node)];
    if (frame.next_edge >= out.size()) {
      stack.pop_back();
      path.pop_back();
      continue;
    }
    const int next = out[frame.next_edge++];
    if (visited[static_cast<size_t>(next)]) continue;
    visited[static_cast<size_t>(next)] = true;
    stack.push_back({next, 0});
    path.push_back(next);
  }

  std::string cycle;
  for (int node : path) {
    cycle += "\"" + site_names_[static_cast<size_t>(node)] + "\" -> ";
  }
  cycle += "\"" + site_names_[static_cast<size_t>(acquiring)] + "\"";
  std::fprintf(
      stderr,
      "[medrelax] lock-order inversion: acquiring \"%s\" while holding "
      "\"%s\", but the established acquisition order is %s; "
      "this ordering can deadlock, aborting\n",
      site_names_[static_cast<size_t>(acquiring)].c_str(),
      site_names_[static_cast<size_t>(held)].c_str(), cycle.c_str());
  std::abort();
}

}  // namespace medrelax
