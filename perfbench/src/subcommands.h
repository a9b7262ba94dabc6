#ifndef PERFBENCH_SRC_SUBCOMMANDS_H_
#define PERFBENCH_SRC_SUBCOMMANDS_H_

#include "common.h"

namespace perfbench {

/// `relaxbench wire`: drives a running server over TCP and prints
/// one JSON object of client-side results (wire.cc).
int RunWire(const Flags& flags);

/// `relaxbench trace`: replays the same request stream in-process
/// and prints one JSON object of per-layer metrics (trace.cc).
int RunTrace(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUBCOMMANDS_H_
