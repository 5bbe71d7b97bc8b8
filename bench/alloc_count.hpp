// Process-wide heap-allocation counter for the perf benches' allocs* rows.
//
// bench/alloc_count.cpp replaces the global operator new/delete with
// malloc/free wrappers that count every allocation.  Only the benches that
// report allocation metrics link it (see CMakeLists.txt), so every other
// binary keeps the default allocator.
#ifndef VSSTAT_BENCH_ALLOC_COUNT_HPP
#define VSSTAT_BENCH_ALLOC_COUNT_HPP

#include <cstdint>

namespace vsstat::bench {

/// Heap allocations made so far by this process through operator new.
[[nodiscard]] std::uint64_t allocCount() noexcept;

}  // namespace vsstat::bench

#endif  // VSSTAT_BENCH_ALLOC_COUNT_HPP
