// Command-line flag helpers shared by the tools/ binaries.

#ifndef MEDRELAX_TOOLS_FLAGS_H_
#define MEDRELAX_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstring>
#include <limits>

#include "medrelax/common/status.h"
#include "medrelax/common/string_util.h"
#include "medrelax/serve/protocol.h"

namespace medrelax::tools {

/// The argument after `flag`, or nullptr when the flag is absent.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Parses a decimal count with the protocol's overflow-checked parser
/// (serve::ParseProtocolCount: digits only, no sign, no wrap) and rejects
/// values above `max`, so a value is never silently zeroed or truncated.
/// `what` names the value in the error ("--workers", "port").
[[nodiscard]] inline Result<uint64_t> ParseCount(
    const char* text, const char* what,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  Result<uint64_t> value = serve::ParseProtocolCount(text, what);
  if (value.ok() && *value > max) {
    return Status::InvalidArgument(
        StrFormat("%s=%s exceeds the maximum %llu", what, text,
                  static_cast<unsigned long long>(max)));
  }
  return value;
}

/// Numeric flags read through ParseCount. A bad value keeps the first
/// error in status() and yields the fallback, so a caller reads every
/// flag and then checks once.
class CountFlags {
 public:
  CountFlags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  uint64_t Get(const char* flag, uint64_t fallback,
               uint64_t max = std::numeric_limits<uint64_t>::max()) {
    const char* text = FlagValue(argc_, argv_, flag);
    if (text == nullptr) return fallback;
    Result<uint64_t> value = ParseCount(text, flag, max);
    if (!value.ok()) {
      if (status_.ok()) status_ = value.status();
      return fallback;
    }
    return *value;
  }

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  int argc_;
  char** argv_;
  Status status_;
};

}  // namespace medrelax::tools

#endif  // MEDRELAX_TOOLS_FLAGS_H_
