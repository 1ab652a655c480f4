// Process-level probes of the benchmark binary: heap allocations (this
// binary replaces the global operator new/delete family; every
// allocation bumps a counter owned by the allocating thread, so
// counting does not perturb the contended paths it measures), heap
// bytes in use, peak RSS, and CPU time.

#ifndef PERFBENCH_PROCESS_STATS_H_
#define PERFBENCH_PROCESS_STATS_H_

#include <cstdint>

namespace perfbench {

/// Allocations made by operator new in every thread so far.
uint64_t TotalAllocations();

/// Allocations made by operator new in the calling thread so far.
uint64_t ThreadAllocations();

/// Bytes in use by malloc right now (all arenas plus mmap'd blocks).
uint64_t HeapBytesInUse();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// CPU time consumed by all threads of this process, in ns. With
/// paravirtual steal accounting (Linux guests on KVM), time the host
/// took the vCPU away is not counted.
uint64_t ProcessCpuNs();

/// CPU time consumed by the calling thread, in ns.
uint64_t ThreadCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_STATS_H_
