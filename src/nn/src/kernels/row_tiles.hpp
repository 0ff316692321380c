#pragma once

// Row blocking shared by the SIMD backends' register tiles. Not a public
// header: lives under src/nn/src/kernels/ on purpose.

#include <cstddef>
#include <type_traits>
#include <utility>

namespace gpufreq::nn::kernels {

template <class Tile, std::size_t... R>
inline void tail_tile(std::size_t i, std::size_t rows, Tile& tile, std::index_sequence<R...>) {
  ((rows == R + 1 ? tile(i, std::integral_constant<std::size_t, R + 1>{}) : void()), ...);
}

// Runs tile(i, std::integral_constant<std::size_t, R>{}) over the rows
// [lo, hi) of a band: Mr-row tiles, then the row tail as ONE R-row tile
// (R = 1..Mr-1), so no row ever runs alone on a latency-bound fma chain.
template <std::size_t Mr, class Tile>
inline void for_row_tiles(std::size_t lo, std::size_t hi, Tile tile) {
  std::size_t i = lo;
  for (; i + Mr <= hi; i += Mr) tile(i, std::integral_constant<std::size_t, Mr>{});
  tail_tile(i, hi - i, tile, std::make_index_sequence<Mr - 1>{});
}

}  // namespace gpufreq::nn::kernels
