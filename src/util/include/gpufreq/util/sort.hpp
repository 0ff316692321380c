#pragma once

// Recursion-free sorting for GPUFREQ_HOT paths.
//
// std::sort is introsort: its quicksort stage (__introsort_loop) recurses
// on one partition, so the resource-bound gate (tools/analyze/
// gpufreq_bounds.py) rejects it — any cycle reachable from a hot root
// makes the worst-case stack depth unbounded. bounded_sort is heapsort:
// libstdc++'s make_heap/sort_heap sift entirely in loops, giving O(1)
// stack at O(n log n) compares. The constant factor loses to introsort on
// large arrays, but hot-path sorts here are DVFS frequency grids
// (~dozens of entries), where the difference is noise.

#include <algorithm>

namespace gpufreq::detail {

// An already-ascending range (the service's default grid, every sweep)
// returns after one linear is_sorted pass instead of a full heapsort.
template <typename RandomIt>
inline void bounded_sort(RandomIt first, RandomIt last) {
  if (std::is_sorted(first, last)) return;
  std::make_heap(first, last);
  std::sort_heap(first, last);
}

}  // namespace gpufreq::detail
