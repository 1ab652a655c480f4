#include "process_stats.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One counter per thread, claimed on the thread's first allocation.
// Slots are never recycled; a process with more threads than slots
// shares the last one, whose count may then drop a few increments.
constexpr int kSlots = 512;
struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};
Slot slots[kSlots];
std::atomic<int> next_slot{0};

Slot* ThisThreadSlot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    const int i = next_slot.fetch_add(1, std::memory_order_relaxed);
    slot = &slots[i < kSlots ? i : kSlots - 1];
  }
  return slot;
}

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p != nullptr) {
    // Only the owning thread writes its slot: a plain load/store pair
    // avoids a locked instruction on every allocation.
    std::atomic<uint64_t>& count = ThisThreadSlot()->count;
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  return p;
}

}  // namespace

uint64_t TotalAllocations() {
  uint64_t total = 0;
  for (const Slot& s : slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

uint64_t ThreadAllocations() {
  return ThisThreadSlot()->count.load(std::memory_order_relaxed);
}

uint64_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) + static_cast<uint64_t>(info.hblkhd);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
uint64_t CpuNs(clockid_t clock) {
  struct timespec ts {};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench

// ------------------------------------------------ global replacements

void* operator new(std::size_t size) {
  void* p = perfbench::CountedAlloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::CountedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
