// Global allocation counter for the allocation tests. Replaces the
// global operator new/delete, so include it from exactly one
// translation unit of a test binary. g_allocations counts every
// operator-new call in the binary; a test reads it before and after
// the code under test.

#ifndef BLOWFISH_TESTS_ALLOC_COUNTER_H_
#define BLOWFISH_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Every replacement is kept out of line: inlined, GCC pairs the
// malloc() in operator new or the free() in operator delete with the
// caller's new/delete and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // BLOWFISH_TESTS_ALLOC_COUNTER_H_
