// Counting replacements of the global operator new and delete. They live
// in their own translation unit so the compiler never inlines the
// malloc/free pair into a new-expression's call site. The array, nothrow
// and sized forms of the standard library forward to these two.

#include "bench/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace medrelax::bench {

uint64_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace medrelax::bench
