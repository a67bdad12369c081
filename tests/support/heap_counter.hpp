// Binary-wide replaceable allocation counter for allocation-free tests.
//
// A test binary that links heap_counter.cpp routes every global
// `operator new` through a counter; allocation passes through to malloc
// otherwise, so every other test in the binary is unaffected. Tests
// bracket a window with heap_allocations() and compare.
#pragma once

#include <cstdint>

namespace hsw::test_support {

/// Global operator new calls made by this process so far.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace hsw::test_support
