/**
 * @file
 * Exact heap-allocation counts for the benchmark process.
 *
 * alloc_count.cc replaces the global operator new of this executable
 * only, so every allocation the simulator libraries make while the
 * benchmark drives them is counted. The benchmark runs one simulation
 * thread, so a plain counter suffices.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench
{

/** Allocations made through operator new since the process began. */
std::uint64_t allocCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
