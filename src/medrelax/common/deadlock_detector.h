#ifndef MEDRELAX_COMMON_DEADLOCK_DETECTOR_H_
#define MEDRELAX_COMMON_DEADLOCK_DETECTOR_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace medrelax {

/// A process-wide lock-acquisition-order graph. Every medrelax::Mutex /
/// SharedMutex registers a *site* (its construction name; all instances
/// created with the same name share one site, e.g. the ResultCache shard
/// mutexes). When a thread acquires site B while holding site A, the edge
/// A -> B is recorded; if the reverse path B ->* A already exists, the two
/// acquisition sites are on a lock-order cycle that could deadlock under
/// the right interleaving, and the process aborts with both site names.
///
/// This catches inversions *deterministically*: the abort fires the first
/// time the second ordering is merely observed, on any schedule, even on
/// one core — where TSan's happens-before race detection would need the
/// threads to actually interleave into the deadlock.
///
/// The class is always compiled; the Mutex/SharedMutex hooks that feed it
/// are compiled in only under MEDRELAX_DEADLOCK_DEBUG (ON in the asan and
/// tsan presets, see CMakeLists.txt). Limitations, by design:
///   - granularity is the site, not the instance, so two instances sharing
///     a name are never ordered against each other (same-site nesting is
///     ignored rather than reported);
///   - shared (reader) acquisitions are ordered like exclusive ones, which
///     is conservative in the safe direction.
///
/// Thread-safe: the graph is guarded by an internal lock; the held-lock
/// stack is thread-local.
class DeadlockDetector {
 public:
  static DeadlockDetector& Instance();

  DeadlockDetector(const DeadlockDetector&) = delete;
  DeadlockDetector& operator=(const DeadlockDetector&) = delete;

  /// The site id for `name`, registering it on first sight. Stable for the
  /// process lifetime; the same name always yields the same id.
  [[nodiscard]] int RegisterSite(const char* name);

  [[nodiscard]] std::string SiteName(int site) const;

  /// Sites registered so far; their ids are 0 .. num_sites() - 1 (tests).
  [[nodiscard]] int num_sites() const;

  /// Records that the calling thread is about to acquire `site`. Adds
  /// held-site -> site edges; on a would-be cycle, prints a one-line
  /// report naming both acquisition sites (and the full cycle path) to
  /// stderr and aborts the process.
  void OnAcquire(int site);

  /// Records that the calling thread released `site` (most recent
  /// acquisition first).
  void OnRelease(int site);

  /// True when the edge before -> after has been recorded (tests).
  [[nodiscard]] bool HasEdge(int before, int after) const;

  /// True when a directed path from -> to exists in the graph (tests).
  [[nodiscard]] bool PathExists(int from, int to) const;

  /// Sites currently held by the calling thread, acquisition order
  /// (tests and diagnostics).
  [[nodiscard]] std::vector<int> HeldByThisThread() const;

  /// Drops every recorded edge but keeps site registrations. Test-only:
  /// real code never unlearns an ordering.
  void ResetEdgesForTest();

 private:
  DeadlockDetector() = default;

  /// DFS over the adjacency lists; caller holds mu_.
  [[nodiscard]] bool PathExistsLocked(int from, int to) const;
  /// Prints the inversion report (both site names + cycle path) and
  /// aborts; caller holds mu_.
  [[noreturn]] void ReportCycleLocked(int held, int acquiring) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, int> site_ids_;
  std::vector<std::string> site_names_;
  /// edges_[a] holds every site ever acquired while a was held.
  std::vector<std::vector<int>> edges_;
};

}  // namespace medrelax

#endif  // MEDRELAX_COMMON_DEADLOCK_DETECTOR_H_
