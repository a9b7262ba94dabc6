#ifndef PERFBENCH_SRC_STREAM_H_
#define PERFBENCH_SRC_STREAM_H_

// Workload definitions, seeded request streams and reference answers for
// the serving benchmark. Everything here is derived from the snapshot
// image the server boots from plus the run's seed, so the load client
// (wire.cc) and the in-process tracer (trace.cc) replay exactly the same
// request lines.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "medrelax/serve/snapshot.h"

namespace perfbench {

/// Read connections of every workload: closed loop, one request in flight
/// each, against the server's two workers.
inline constexpr unsigned kConnections = 3;

/// How a workload draws its requests (README.md, "Workloads").
struct WorkloadSpec {
  std::string name;
  /// Zipf(zipf_theta) over the eligible names; uniform when 0.
  double zipf_theta = 0.0;
  /// Draw only from the first `hot_names` names of the popularity
  /// ranking (0 = all eligible names).
  size_t hot_names = 0;
  /// Share of draws replaced by the name's one-edit typo.
  double typo_share = 0.0;
  /// Share of draws naming a concept drawn uniformly from the whole DAG.
  double far_share = 0.0;
  /// Share of requests carrying a ctx= label.
  double ctx_share = 0.0;
  /// Milliseconds between RELOADs on a dedicated connection; 0 = none.
  unsigned reload_every_ms = 0;
};

/// Looks up a workload by name; false when the name is unknown.
bool FindWorkload(std::string_view name, WorkloadSpec* spec);

/// One request of a stream: a term of the vocabulary and an optional
/// context label. Packs into a 64-bit key (Key) so replies can be checked
/// once per distinct request line.
struct Request {
  uint32_t term = 0;
  /// 0 = no ctx=; otherwise 1 + index into Vocabulary::contexts.
  uint32_t context = 0;

  [[nodiscard]] uint64_t Key() const {
    return (static_cast<uint64_t>(term) << 32) | context;
  }
  static Request FromKey(uint64_t key) {
    return Request{static_cast<uint32_t>(key >> 32),
                   static_cast<uint32_t>(key & 0xffffffffu)};
  }
};

/// Every term and context label a workload's requests may name.
class Vocabulary {
 public:
  /// Builds the vocabulary of `spec` over `snap`. The popularity ranking
  /// of the names and the typo of each name are fixed per image, so a
  /// run's seed changes only which requests are drawn, not how costly
  /// the popular ones are.
  Vocabulary(const medrelax::Snapshot& snap, const WorkloadSpec& spec);

  /// The protocol line for `request`, without the trailing newline.
  [[nodiscard]] std::string Line(const Request& request) const;
  /// The same line without the leading "RELAX " verb.
  [[nodiscard]] std::string Args(const Request& request) const;

  /// True when `request` names a concept drawn from the whole DAG rather
  /// than a KB instance name.
  [[nodiscard]] bool IsFar(const Request& request) const {
    return request.term >= far_begin_;
  }

  [[nodiscard]] const std::vector<std::string>& terms() const {
    return terms_;
  }
  [[nodiscard]] const std::vector<std::string>& contexts() const {
    return contexts_;
  }
  /// Names the workload draws from, in popularity order.
  [[nodiscard]] size_t num_names() const { return num_names_; }
  /// Term index of the typo variant of name `i` (i < num_names()).
  [[nodiscard]] uint32_t typo_of(size_t i) const { return typo_[i]; }
  [[nodiscard]] uint32_t far_begin() const { return far_begin_; }

 private:
  /// Names first (popularity order), then their typo variants, then the
  /// far concept names.
  std::vector<std::string> terms_;
  std::vector<uint32_t> typo_;
  size_t num_names_ = 0;
  uint32_t far_begin_ = 0;
  /// Context labels a one-token ctx= can carry.
  std::vector<std::string> contexts_;
};

/// One connection's seeded request stream. Each connection owns its
/// stream, so connections do not replay a shared prefix.
class RequestStream {
 public:
  RequestStream(const Vocabulary* vocab, const WorkloadSpec& spec,
                uint64_t seed, unsigned connection);

  Request Next();

 private:
  double Uniform();
  size_t Below(size_t n);

  const Vocabulary* vocab_;
  WorkloadSpec spec_;
  std::mt19937_64 rng_;
  /// Cumulative Zipf weights over the drawn names; empty = uniform.
  std::vector<double> zipf_cdf_;
  size_t names_ = 0;
};

/// The reply the server must give to `args` (the text after "RELAX "),
/// computed through the library path the server uses: parse, resolve
/// ctx, map, RelaxConceptWithK. The generation and hit fields are left
/// out, as in MaskReply.
std::string ReferenceReply(const medrelax::Snapshot& snap,
                           std::string_view args);

/// Removes the " gen=N" and " hit=B" fields of an "ok relax" reply,
/// which differ between equal answers; other replies pass unchanged.
std::string MaskReply(std::string_view reply);

/// Reply class: "ok", or the status code of an "err" reply.
std::string ReplyClass(std::string_view reply);

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STREAM_H_
