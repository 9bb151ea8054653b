// Process-wide heap-allocation counter behind tensor.heap_allocs_per_op:
// global operator new/delete replacements that count every allocation on
// every thread (load thread and engine workers alike). malloc/free do the
// work, so the counted program allocates exactly as it would without them.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_hook.hpp"

namespace rfbench {
namespace {

std::atomic<uint64_t> g_allocations{0};

void* allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* pointer = std::malloc(size != 0 ? size : 1);
  if (pointer == nullptr) {
    throw std::bad_alloc();
  }
  return pointer;
}

}  // namespace

uint64_t heap_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace rfbench

void* operator new(std::size_t size) { return rfbench::allocate(size); }
void* operator new[](std::size_t size) { return rfbench::allocate(size); }
void operator delete(void* pointer) noexcept { std::free(pointer); }
void operator delete[](void* pointer) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept { std::free(pointer); }
void operator delete[](void* pointer, std::size_t) noexcept {
  std::free(pointer);
}
