#include "heap_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at call sites; with them
// inlined, GCC's -Wmismatched-new-delete pairs the exposed free() against
// `new` expressions and misfires (seen under -fsanitize=thread).
#if defined(__GNUC__)
#define HSW_TEST_NOINLINE __attribute__((noinline))
#else
#define HSW_TEST_NOINLINE
#endif

HSW_TEST_NOINLINE void* operator new(std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc{};
}

HSW_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
HSW_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace hsw::test_support {

std::uint64_t heap_allocations() { return g_heap_allocs.load(std::memory_order_relaxed); }

}  // namespace hsw::test_support
