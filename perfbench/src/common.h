#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

// Small helpers shared by the subcommands: flags, clocks,
// percentiles and a flat JSON object writer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NanosSince(Clock::time_point start, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// "--name value" flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] std::string Get(const char* name,
                                const std::string& fallback = "") const {
    for (int i = 0; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return argv_[i + 1];
    }
    return fallback;
  }
  [[nodiscard]] double Number(const char* name, double fallback) const {
    const std::string v = Get(name);
    return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
  }
  [[nodiscard]] bool Has(const char* name) const {
    for (int i = 0; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

 private:
  int argc_;
  char** argv_;
};

/// Nearest-rank quantile q in [0, 1] of `values` (sorted in place);
/// 0 when empty.
template <typename T>
double Quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

template <typename T>
double Mean(const std::vector<T>& values) {
  if (values.empty()) return 0;
  double total = 0;
  for (const T& v : values) total += static_cast<double>(v);
  return total / static_cast<double>(values.size());
}

/// Flat JSON object writer: numbers, strings and nested objects of
/// numbers. Keys keep insertion order.
class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.9g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void String(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        quoted += esc;
      } else {
        quoted += c;
      }
    }
    Raw(key, quoted + "\"");
  }
  void Object(const std::string& key, const JsonObject& value) {
    Raw(key, value.ToString());
  }
  [[nodiscard]] std::string ToString() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
