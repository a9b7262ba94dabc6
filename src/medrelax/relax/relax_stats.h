#ifndef MEDRELAX_RELAX_RELAX_STATS_H_
#define MEDRELAX_RELAX_RELAX_STATS_H_

#include <cstddef>
#include <cstdint>

namespace medrelax {

/// Instrumentation counters for one online relaxation (or, via Accumulate,
/// a batch of them). Populated by QueryRelaxer and surfaced through
/// RelaxationOutcome::stats; bench_scaling reports them as benchmark
/// counters.
struct RelaxStats {
  /// Flagged concepts scored (Algorithm 2 line 3 iterations).
  size_t candidates_scanned = 0;
  /// Core concepts the radius search settled (flagged or not), counting
  /// the query's attachment when the query was peeled off the core
  /// (graph/flagged_core.h). Peeled concepts are never visited, so this
  /// is far below the size of the DAG ball of the same radius.
  size_t neighbors_visited = 0;
  /// Radius values tried: 1 for a fixed radius, more when dynamic growth
  /// had to widen the ball.
  size_t radius_iterations = 0;
  /// Always 0 (there is no geometry memo); perfbench/src/trace.cc reads them.
  size_t geometry_cache_hits = 0;
  size_t geometry_cache_misses = 0;
  /// Wall time of the candidate search (radius expansion + flag filter).
  uint64_t candidate_ns = 0;
  /// Wall time of geometry computation + scoring.
  uint64_t scoring_ns = 0;
  /// Wall time of the ranking (partial selection of the records that fill
  /// k) + instance materialization.
  uint64_t rank_ns = 0;
  /// End-to-end wall time of the relaxation.
  uint64_t total_ns = 0;

  /// Adds `other` into this (used to aggregate batch statistics).
  void Accumulate(const RelaxStats& other) {
    candidates_scanned += other.candidates_scanned;
    neighbors_visited += other.neighbors_visited;
    radius_iterations += other.radius_iterations;
    candidate_ns += other.candidate_ns;
    scoring_ns += other.scoring_ns;
    rank_ns += other.rank_ns;
    total_ns += other.total_ns;
  }
};

}  // namespace medrelax

#endif  // MEDRELAX_RELAX_RELAX_STATS_H_
