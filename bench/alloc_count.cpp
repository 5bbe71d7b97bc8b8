#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gAllocCount{0};

}  // namespace

// Global allocation hooks: count every heap allocation so the benches'
// allocs/iteration, allocs/sample and allocs/fit metrics are exact.
void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vsstat::bench {

std::uint64_t allocCount() noexcept {
  return gAllocCount.load(std::memory_order_relaxed);
}

}  // namespace vsstat::bench
