// relaxbench: the serving benchmark's compiled half. run.py builds
// it next to the medrelax binaries and calls one subcommand per step.
//
//   relaxbench wire  --image IMG --workload W --seed S --port P
//                          --server-pid PID --seconds T
//                          [--reload-path PATH] [--corrupt-reference]
//       Closed-loop load over TCP; checks every reply (wire.cc).
//   relaxbench trace --image IMG --workload W --seed S
//                          --requests N [--spans FILE]
//       In-process per-layer trace of the same stream (trace.cc).
//   relaxbench calib
//       Times a fixed CPU-plus-memory loop, to show machine drift.
//
// Each subcommand prints one JSON object on stdout.

#include <cstring>
#include <vector>

#include "common.h"
#include "subcommands.h"

namespace perfbench {
namespace {

/// A fixed dependent-load walk over a 16 MiB table with some integer
/// arithmetic per step: sensitive to both core speed and memory latency.
int RunCalib() {
  constexpr size_t kSlots = size_t{1} << 22;
  std::vector<uint32_t> table(kSlots);
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (size_t i = 0; i < kSlots; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] = static_cast<uint32_t>(x & (kSlots - 1));
  }
  const Clock::time_point start = Clock::now();
  uint32_t at = 0;
  uint64_t acc = 0;
  for (size_t step = 0; step < (size_t{1} << 23); ++step) {
    at = table[at] ^ static_cast<uint32_t>(step & 7);
    acc = acc * 6364136223846793005ull + at;
  }
  const double ms = static_cast<double>(NanosSince(start, Clock::now())) / 1e6;
  JsonObject out;
  out.Number("calib_ms", ms);
  out.Number("checksum", static_cast<double>(acc & 0xffff));
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2) {
    const perfbench::Flags flags(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "wire") == 0) return perfbench::RunWire(flags);
    if (std::strcmp(argv[1], "trace") == 0) return perfbench::RunTrace(flags);
    if (std::strcmp(argv[1], "calib") == 0) return perfbench::RunCalib();
  }
  std::fprintf(stderr, "usage: relaxbench wire|trace|calib [flags]\n");
  return 2;
}
