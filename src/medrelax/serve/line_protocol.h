#ifndef MEDRELAX_SERVE_LINE_PROTOCOL_H_
#define MEDRELAX_SERVE_LINE_PROTOCOL_H_

#include <chrono>
#include <string>
#include <string_view>

#include "medrelax/common/thread_annotations.h"
#include "medrelax/serve/relaxation_service.h"

namespace medrelax::serve {

/// The verbs of the newline-delimited serving protocol (grammar in
/// docs/SERVING.md), answered against one RelaxationService. Both
/// transports of medrelax_server — the stdin session and the TCP loops
/// (serve/tcp_server.h) — produce every reply through this class, so the
/// same scripted session yields byte-identical transcripts over both.
///
/// Thread-safe except Reload, which only one thread at a time may run:
/// the stdin session, or the TCP server's single reload thread.
class LineProtocol {
 public:
  /// `image_path` is the flat image a plain RELOAD maps: the boot image,
  /// until a `RELOAD <path>` makes <path> the one.
  LineProtocol(RelaxationService& service, std::string image_path);

  LineProtocol(const LineProtocol&) = delete;
  LineProtocol& operator=(const LineProtocol&) = delete;

  /// The reply to one RELAX or control-verb line (CONTEXTS, GEN, STATS,
  /// or an unknown verb), computed on the calling thread; the transports
  /// handle blank and '#' lines, RELOAD and QUIT themselves. A RELAX
  /// deadline counts from `received_at`. CPU work only: RELAX maps,
  /// probes the cache and relaxes inline.
  [[nodiscard]] std::string Answer(
      std::string_view line, std::chrono::steady_clock::time_point received_at);

  /// Runs `RELOAD [path]`: maps `path` when it is not empty, else the
  /// current image path, publishes it and renders the reply. A failed
  /// reload replies a typed err and leaves the serving generation
  /// untouched. MEDRELAX_BLOCKING: mapping a large image takes a few
  /// hundred ms; the TCP transport runs it off its loops.
  [[nodiscard]] std::string Reload(std::string_view path) MEDRELAX_BLOCKING;

  /// The first line of every session: `ok serving gen=G workers=W
  /// cache=C`.
  [[nodiscard]] std::string Banner(unsigned workers,
                                   size_t cache_capacity) const;

  [[nodiscard]] RelaxationService& service() { return service_; }

 private:
  /// RELAX [k=N] [timeout_ms=N] [ctx=LABEL] <term...>: parses `args`,
  /// resolves the context label against the snapshot it pins, and relaxes
  /// against that same snapshot.
  std::string AnswerRelax(std::string_view args,
                          std::chrono::steady_clock::time_point received_at);

  RelaxationService& service_;
  /// Touched only by Reload, which runs on one thread at a time.
  std::string image_path_;
};

}  // namespace medrelax::serve

#endif  // MEDRELAX_SERVE_LINE_PROTOCOL_H_
