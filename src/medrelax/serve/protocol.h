#ifndef MEDRELAX_SERVE_PROTOCOL_H_
#define MEDRELAX_SERVE_PROTOCOL_H_

// Pure parsing layer for the newline-delimited serving protocol
// (docs/SERVING.md). Deliberately free of service, snapshot, and socket
// dependencies: the same code that parses attacker-controlled bytes in
// both server transports also runs under the fuzzer
// (fuzz/fuzz_protocol.cc) and in unit tests, so hardening lands in one
// place and covers every caller.
//
// Numeric options are overflow-checked. The old std::strtoul path
// silently wrapped `k=99999999999999999999` into an arbitrary small
// request; here any value that does not fit (or exceeds the option's
// sanity cap) is a typed InvalidArgument the transports render as a
// protocol `err` line.

#include <cstdint>
#include <string>
#include <string_view>

#include "medrelax/common/result.h"
#include "medrelax/ontology/context.h"

namespace medrelax::serve {

/// Protocol verbs, in the order docs/SERVING.md lists them.
enum class Verb {
  kRelax,
  kContexts,
  kGen,
  kReload,
  kStats,
  kQuit,
  kUnknown,
};

/// Classifies a verb token (the first whitespace-delimited word of a
/// line). Verbs are case-sensitive, as they always were.
[[nodiscard]] Verb ParseVerb(std::string_view token);

/// A line split into its first whitespace-delimited word (read the way
/// `std::istream >> token` reads it) and the text after that word.
struct VerbLine {
  std::string_view verb;
  std::string_view args;
};
[[nodiscard]] VerbLine SplitVerb(std::string_view line);

/// Parsed form of one `RELAX [k=N] [timeout_ms=N] [ctx=LABEL] <term...>`
/// argument list, before any snapshot-dependent resolution (context
/// labels resolve against the live snapshot in the server, never here).
struct RelaxLine {
  uint64_t top_k = 0;        ///< 0 = absent (snapshot default)
  uint64_t timeout_ms = 0;   ///< 0 = absent (service default)
  bool has_context = false;  ///< a ctx=LABEL option was present
  std::string context_label;
  std::string term;          ///< whitespace-normalized query term
};

/// Upper bound on timeout_ms (24h). A parsed timeout is converted to a
/// steady_clock duration downstream; an unchecked 64-bit value would
/// overflow the nanosecond representation long before it made sense as
/// a deadline.
inline constexpr uint64_t kMaxTimeoutMs = 24ull * 60 * 60 * 1000;

/// Parses the text after the RELAX verb. Options are recognized only
/// before the first term token — a term may contain '=' freely, and
/// `RELAX foo k=2` queries the literal term "foo k=2". The returned
/// Status carries exactly the message the transports print after
/// "err ", so the golden transcripts pin these texts.
[[nodiscard]] Result<RelaxLine> ParseRelaxArgs(std::string_view args);

/// Resolves the ctx= label of a parsed line (`line->has_context`)
/// against `contexts`. A token that is a listed label resolves as is.
/// Otherwise the token is extended with the term's leading words, and
/// the longest listed label they spell wins, leaving at least one word
/// for the term: `ctx=Monitoring-uses-Lab Test hba1c` addresses the
/// label "Monitoring-uses-Lab Test" with term "hba1c". On success
/// `line->context_label` holds the full label and `line->term` loses the
/// consumed words. InvalidArgument "unknown context '<token>'" when no
/// extension is listed; `*line` is then unchanged.
[[nodiscard]] Result<ContextId> ResolveContextLabel(
    const ContextRegistry& contexts, RelaxLine* line);

/// Overflow-checked decimal parse for protocol options; `what` names
/// the option in error messages ("k", "timeout_ms"). Rejects empty
/// text, any non-digit character, and values over 2^64-1 — no silent
/// wrap, no locale, no leading '+'/'-'/whitespace.
[[nodiscard]] Result<uint64_t> ParseProtocolCount(std::string_view text,
                                                  std::string_view what);

}  // namespace medrelax::serve

#endif  // MEDRELAX_SERVE_PROTOCOL_H_
