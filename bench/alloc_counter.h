#ifndef MEDRELAX_BENCH_ALLOC_COUNTER_H_
#define MEDRELAX_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace medrelax::bench {

/// Heap allocations made through the global operator new so far, on any
/// thread. Only a binary that links bench/alloc_counter.cc, which
/// replaces the global allocation functions, counts them.
uint64_t HeapAllocations();

}  // namespace medrelax::bench

#endif  // MEDRELAX_BENCH_ALLOC_COUNTER_H_
