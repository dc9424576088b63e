/**
 * @file
 * Heap-allocation counter for the traced run. The benchmark binary
 * replaces the global operator new (alloc_counter.cc); while counting
 * is switched on, every allocation from any thread bumps one relaxed
 * atomic. Off — the state for every timed run — the hook costs one
 * relaxed load on top of malloc.
 */

#ifndef PERFBENCH_ALLOC_COUNTER_HH
#define PERFBENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace perfbench
{

/** Start or stop counting allocations (process-wide). */
void setAllocCounting(bool on);

/** Allocations counted so far (monotonic). */
uint64_t allocCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNTER_HH
