#pragma once

#include <cstdint>

namespace rfbench {

/// operator new calls on every thread of this process so far.
uint64_t heap_allocations();

}  // namespace rfbench
