#include "medrelax/serve/protocol.h"

#include <algorithm>
#include <limits>

#include "medrelax/common/string_util.h"

namespace medrelax::serve {

namespace {

/// Pops the next whitespace-delimited token off `*rest`; empty when the
/// input is exhausted. Mirrors `std::istream >> token` so the rewired
/// transports tokenize exactly like the old istringstream path did.
std::string_view NextToken(std::string_view* rest) {
  size_t start = rest->find_first_not_of(" \t\r\n\v\f");
  if (start == std::string_view::npos) {
    *rest = {};
    return {};
  }
  size_t end = rest->find_first_of(" \t\r\n\v\f", start);
  if (end == std::string_view::npos) end = rest->size();
  std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

}  // namespace

Verb ParseVerb(std::string_view token) {
  if (token == "RELAX") return Verb::kRelax;
  if (token == "CONTEXTS") return Verb::kContexts;
  if (token == "GEN") return Verb::kGen;
  if (token == "RELOAD") return Verb::kReload;
  if (token == "STATS") return Verb::kStats;
  if (token == "QUIT") return Verb::kQuit;
  return Verb::kUnknown;
}

VerbLine SplitVerb(std::string_view line) {
  VerbLine split;
  split.verb = NextToken(&line);
  split.args = line;
  return split;
}

Result<uint64_t> ParseProtocolCount(std::string_view text,
                                    std::string_view what) {
  if (text.empty()) {
    return Status::InvalidArgument(
        StrFormat("%.*s= wants a decimal integer",
                  static_cast<int>(what.size()), what.data()));
  }
  uint64_t value = 0;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrFormat("%.*s= wants a decimal integer, got '%.*s'",
                    static_cast<int>(what.size()), what.data(),
                    static_cast<int>(text.size()), text.data()));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      return Status::InvalidArgument(
          StrFormat("%.*s=%.*s does not fit in 64 bits",
                    static_cast<int>(what.size()), what.data(),
                    static_cast<int>(text.size()), text.data()));
    }
    value = value * 10 + digit;
  }
  return value;
}

Result<RelaxLine> ParseRelaxArgs(std::string_view args) {
  RelaxLine line;
  std::string_view rest = args;
  for (std::string_view token = NextToken(&rest); !token.empty();
       token = NextToken(&rest)) {
    if (line.term.empty() && token.rfind("k=", 0) == 0) {
      Result<uint64_t> k = ParseProtocolCount(token.substr(2), "k");
      if (!k.ok()) return k.status();
      if (*k == 0) {
        // The service coerces top_k == 0 to the snapshot default, so an
        // explicit k=0 would silently alias "default" — reject the typo
        // instead of answering something the client did not ask for.
        return Status::InvalidArgument(
            "k must be positive (omit k= for the snapshot default)");
      }
      line.top_k = *k;
      continue;
    }
    if (line.term.empty() && token.rfind("timeout_ms=", 0) == 0) {
      Result<uint64_t> ms =
          ParseProtocolCount(token.substr(11), "timeout_ms");
      if (!ms.ok()) return ms.status();
      if (*ms > kMaxTimeoutMs) {
        return Status::InvalidArgument(StrFormat(
            "timeout_ms must be at most %llu",
            static_cast<unsigned long long>(kMaxTimeoutMs)));
      }
      line.timeout_ms = *ms;
      continue;
    }
    if (line.term.empty() && token.rfind("ctx=", 0) == 0) {
      line.has_context = true;
      line.context_label = std::string(token.substr(4));
      continue;
    }
    if (!line.term.empty()) line.term += ' ';
    line.term += token;
  }
  if (line.term.empty()) {
    return Status::InvalidArgument("RELAX needs a term");
  }
  return line;
}

Result<ContextId> ResolveContextLabel(const ContextRegistry& contexts,
                                      RelaxLine* line) {
  ContextId id = contexts.FindByLabel(line->context_label);
  if (id != kNoContext) return id;
  // The term is whitespace-normalized, so its words are split by single
  // spaces; the last word always stays behind as the term. Extending
  // stops past the longest listed label, so a long term costs no more
  // than that label's length in lookups.
  size_t longest = 0;
  for (const Context& context : contexts.contexts()) {
    longest = std::max(longest, context.Label().size());
  }
  std::string label = line->context_label;
  size_t consumed = 0;
  for (size_t word = 0, space = line->term.find(' ');
       space != std::string::npos;
       word = space + 1, space = line->term.find(' ', word)) {
    label += ' ';
    label.append(line->term, word, space - word);
    if (label.size() > longest) break;
    const ContextId longer = contexts.FindByLabel(label);
    if (longer != kNoContext) {
      id = longer;
      consumed = space + 1;
    }
  }
  if (id == kNoContext) {
    return Status::InvalidArgument(StrFormat(
        "unknown context '%s'", line->context_label.c_str()));
  }
  line->context_label = label.substr(0, line->context_label.size() + consumed);
  line->term.erase(0, consumed);
  return id;
}

}  // namespace medrelax::serve
