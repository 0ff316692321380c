// bounded_sort (gpufreq/util/sort.hpp), the recursion-free sort of the hot
// path's frequency grids, against std::sort: already-ascending input (the
// early return), reversed, duplicate-holding, unsorted, and the empty,
// one- and two-element edges.
#include "gpufreq/util/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace {

TEST(BoundedSort, MatchesStdSort) {
  std::vector<double> ascending(61);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = 510.0 + 15.0 * static_cast<double>(i);
  }
  const std::vector<double> reversed(ascending.rbegin(), ascending.rend());
  const std::vector<std::vector<double>> inputs = {
      {},
      {705.0},
      {705.0, 510.0},
      {510.0, 705.0},
      {705.0, 705.0},
      ascending,
      reversed,
      {900.0, 510.0, 900.0, 705.0, 510.0, 1410.0, 705.0},
      {1.0, 2.0, 3.0, 5.0, 4.0},
  };
  for (const std::vector<double>& in : inputs) {
    std::vector<double> got = in;
    std::vector<double> want = in;
    gpufreq::detail::bounded_sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "input size " << in.size();
  }
}

}  // namespace
