#pragma once

// The one body of every kernel backend. Each backend TU (scalar.cpp,
// avx2.cpp, avx512.cpp) defines a primitive set V and instantiates
// kernel_table<V>; everything below is written once, in terms of V:
//
//   using vec = ...;                      the vector type
//   static constexpr std::size_t W;       floats per vec (8 or 16)
//   static constexpr std::size_t kAccumulators;  register tile budget
//   zero() set1(s) load(p) store(p, v)
//   load_first(p, n)   lanes [0, n) from p, the rest 0.0; reads only p[0, n)
//   store_first(p, v, n)                  writes only p[0, n)      (1 <= n <= W)
//   fmadd(a, b, c) = a * b + c            fnmadd(a, b, c) = c - a * b
//   add sub mul div
//   min(c, x) = c < x ? c : x             max(c, x) = c > x ? c : x
//   if_gt0(z, a, b) = z > 0 ? a : b       (ordered: NaN takes b)
//   floor(x)   (exact on the int32 range; NaN may come back as any value)
//   scale_pow2(y, fx) = y * 2^fx          (fx integral; NaN fx scales by 1)
//   abs(x)
//
// Constant-first min/max keep a NaN x flowing through exp's clamps, and
// if_gt0 sends NaN down the x <= 0 branch, as the scalar ternaries do.
//
// Shapes come from W and kAccumulators alone: a column tile is 2 lanes of
// W floats while two remain, else 1, and a row tile is kAccumulators /
// lanes rows (8x32 and 16x16 on zmm, 6x16 and 12x8 with 12 accumulators).
// Every output element is one multiply-add chain from 0 with the inner
// dimension ascending, whatever the tile, the band split or the backend,
// so an FMA build gives bitwise-equal results on every backend.
//
// Everything here sits in an anonymous namespace: each backend TU compiles
// its own copy for its own ISA, and no inline function with external
// linkage can let the linker hand one TU's AVX-512 code to another.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "gpufreq/nn/activations.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/kernels/packing.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "scalar_math.hpp"

namespace gpufreq::nn::kernels {
namespace {

template <std::size_t N>
using Const = std::integral_constant<std::size_t, N>;

template <class V>
inline void store_n(float* p, typename V::vec v, std::size_t n) {
  if (n == V::W) {
    V::store(p, v);
  } else {
    V::store_first(p, v, n);
  }
}

// Vector port of scalar_math::fast_expf: the same range reduction and
// polynomial with explicit multiply-adds, so it equals fast_expf bitwise
// wherever the scalar code is contracted to the same FMAs.
template <class V>
inline typename V::vec exp_v(typename V::vec x) {
  x = V::min(V::set1(88.0f), x);
  x = V::max(V::set1(-87.0f), x);
  const typename V::vec fx =
      V::floor(V::fmadd(x, V::set1(1.44269504088896341f), V::set1(0.5f)));
  x = V::fnmadd(fx, V::set1(0.693359375f), x);
  x = V::fnmadd(fx, V::set1(-2.12194440e-4f), x);
  typename V::vec y = V::set1(1.9875691500e-4f);
  y = V::fmadd(y, x, V::set1(1.3981999507e-3f));
  y = V::fmadd(y, x, V::set1(8.3334519073e-3f));
  y = V::fmadd(y, x, V::set1(4.1665795894e-2f));
  y = V::fmadd(y, x, V::set1(1.6666665459e-1f));
  y = V::fmadd(y, x, V::set1(5.0000001201e-1f));
  y = V::add(V::fmadd(V::mul(y, x), x, x), V::set1(1.0f));
  return V::scale_pow2(y, fx);
}

// tanh and softplus have no vector port: they run per element on the
// scalar overloads (activations.cpp, compiled for the baseline ISA).
inline bool vectorizable(Activation act) {
  return act != Activation::kTanh && act != Activation::kSoftplus;
}

// One vector of act(z), for the vectorizable acts.
template <class V>
inline typename V::vec act_v(Activation act, typename V::vec z) {
  const typename V::vec one = V::set1(1.0f);
  switch (act) {
    case Activation::kRelu:
      return V::if_gt0(z, z, V::zero());
    case Activation::kElu:
      return V::if_gt0(z, z, V::sub(exp_v<V>(z), one));
    case Activation::kLeakyRelu:
      return V::if_gt0(z, z, V::mul(V::set1(scalar_math::kLeakySlope), z));
    case Activation::kSelu:
      return V::if_gt0(z, V::mul(V::set1(kSeluScale), z),
                       V::mul(V::set1(kSeluScale * kSeluAlpha), V::sub(exp_v<V>(z), one)));
    case Activation::kSigmoid:
      return V::div(one, V::add(one, exp_v<V>(V::sub(V::zero(), z))));
    case Activation::kSoftsign:
      return V::div(z, V::add(one, V::abs(z)));
    default:
      return z;  // linear; tanh and softplus never get here
  }
}

// One vector of act'(z): the scalar activate_derivative expressions.
template <class V>
inline typename V::vec deriv_v(Activation act, typename V::vec z) {
  const typename V::vec one = V::set1(1.0f);
  switch (act) {
    case Activation::kRelu:
      return V::if_gt0(z, one, V::zero());
    case Activation::kElu:
      return V::if_gt0(z, one, exp_v<V>(z));
    case Activation::kLeakyRelu:
      return V::if_gt0(z, one, V::set1(scalar_math::kLeakySlope));
    case Activation::kSelu:
      return V::if_gt0(z, V::set1(kSeluScale),
                       V::mul(V::set1(kSeluScale * kSeluAlpha), exp_v<V>(z)));
    case Activation::kSigmoid: {
      const typename V::vec s = act_v<V>(Activation::kSigmoid, z);
      return V::mul(s, V::sub(one, s));
    }
    case Activation::kSoftsign: {
      const typename V::vec d = V::add(one, V::abs(z));
      return V::div(one, V::mul(d, d));
    }
    default:
      return one;  // linear; tanh and softplus never get here
  }
}

// Calls f(act_of), act_of() returning `act`: linear and SELU, the paper
// nets' two, as constants, so their instantiations fold the activation
// switch away; every other act as a runtime value.
template <class F>
inline void with_act(Activation act, const F& f) {
  switch (act) {
    case Activation::kLinear:
      return f([] { return Activation::kLinear; });
    case Activation::kSelu:
      return f([] { return Activation::kSelu; });
    default:
      return f([act] { return act; });
  }
}

// out[i] = f(z[i]) a vector at a time; the tail is one first-n vector
// (its dead lanes are 0.0, where every vectorizable act is defined).
template <class V, class F>
inline void map_lanes(const float* z, float* out, std::size_t n, const F& f) {
  std::size_t i = 0;
  for (; i + V::W <= n; i += V::W) V::store(out + i, f(V::load(z + i)));
  if (i < n) V::store_first(out + i, f(V::load_first(z + i, n - i)), n - i);
}

template <class V>
void activate_f(Activation act, const float* z, float* out, std::size_t n) {
  if (!vectorizable(act)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = nn::activate(act, z[i]);
    return;
  }
  with_act(act, [&](auto act_of) {
    map_lanes<V>(z, out, n, [&](typename V::vec v) { return act_v<V>(act_of(), v); });
  });
}

template <class V>
void activate_derivative_f(Activation act, const float* z, float* out, std::size_t n) {
  if (!vectorizable(act)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = nn::activate_derivative(act, z[i]);
    return;
  }
  with_act(act, [&](auto act_of) {
    map_lanes<V>(z, out, n, [&](typename V::vec v) { return deriv_v<V>(act_of(), v); });
  });
}

// out[j] += in[j] for j < n.
template <class V>
inline void add_into(float* out, const float* in, std::size_t n) {
  std::size_t j = 0;
  for (; j + V::W <= n; j += V::W) V::store(out + j, V::add(V::load(out + j), V::load(in + j)));
  if (j < n) {
    const std::size_t live = n - j;
    V::store_first(out + j, V::add(V::load_first(out + j, live), V::load_first(in + j, live)),
                   live);
  }
}

template <class V>
void add_row_vector_f(float* m, const float* v, std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) add_into<V>(m + i * cols, v, cols);
}

template <class V>
void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  std::fill(out, out + cols, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) add_into<V>(out, m + i * cols, cols);
}

// R x P*W register tile of X * B, X(r, q) = x[r * rs + q * qs] (rs = k,
// qs = 1 walks a row-major A; rs = 1, qs = k walks A^T), against P lanes of
// B (lane v at b[v], row stride ldb; with Tail the last lane loads only its
// first `live` columns). emit(r, v, sum) receives each finished sum. The
// emit loop is unrolled even around a large epilogue (SELU): an acc[r][v]
// indexed at run time would live on the stack, stored on every q step.
template <class V, std::size_t R, std::size_t P, bool Tail, class Emit>
inline void tile(const float* x, std::size_t rs, std::size_t qs, std::size_t k,
                 const float* const (&b)[P], std::size_t ldb, std::size_t live,
                 const Emit& emit) {
  typename V::vec acc[R][P];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < P; ++v) acc[r][v] = V::zero();
  }
  for (std::size_t q = 0; q < k; ++q) {
    typename V::vec bq[P];
    for (std::size_t v = 0; v < P; ++v) {
      bq[v] = Tail && v + 1 == P ? V::load_first(b[v] + q * ldb, live) : V::load(b[v] + q * ldb);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const typename V::vec xv = V::set1(x[r * rs + q * qs]);
      for (std::size_t v = 0; v < P; ++v) acc[r][v] = V::fmadd(xv, bq[v], acc[r][v]);
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < P; ++v) emit(r, v, acc[r][v]);
  }
}

template <class V, std::size_t R, std::size_t P, bool Tail, class Emit>
[[gnu::noinline]] void outlined_tile(const float* x, std::size_t rs, std::size_t qs,
                                     std::size_t k, const float* const (&b)[P],
                                     std::size_t ldb, std::size_t live, const Emit& emit) {
  tile<V, R, P, Tail>(x, rs, qs, k, b, ldb, live, emit);
}

// With 16 registers the tile stays its own function: inlined next to its
// sibling row counts and the runtime-act epilogue, it leaves accumulators
// on the stack, stored on every q step.
template <class V, std::size_t R, std::size_t P, bool Tail, class Emit>
inline void run_tile(const float* x, std::size_t rs, std::size_t qs, std::size_t k,
                     const float* const (&b)[P], std::size_t ldb, std::size_t live,
                     const Emit& emit) {
  if constexpr (V::kAccumulators < 16) {
    outlined_tile<V, R, P, Tail>(x, rs, qs, k, b, ldb, live, emit);
  } else {
    tile<V, R, P, Tail>(x, rs, qs, k, b, ldb, live, emit);
  }
}

template <class Tile, std::size_t... R>
inline void tail_tile(std::size_t i, std::size_t rows, Tile& tile, std::index_sequence<R...>) {
  ((rows == R + 1 ? tile(i, Const<R + 1>{}) : void()), ...);
}

// Runs tile(i, Const<R>{}) over the rows [lo, hi) of a band: Mr-row tiles,
// then the row tail as ONE R-row tile (R = 1..Mr-1), so no row ever runs
// alone on a latency-bound multiply-add chain.
template <std::size_t Mr, class Tile>
inline void for_row_tiles(std::size_t lo, std::size_t hi, Tile tile) {
  std::size_t i = lo;
  for (; i + Mr <= hi; i += Mr) tile(i, Const<Mr>{});
  tail_tile(i, hi - i, tile, std::make_index_sequence<Mr - 1>{});
}

// Runs block(j0, Const<P>{}) over columns [0, cols): P = 2 lanes of W
// while more than one lane remains, then 1.
template <class V, class Block>
inline void for_column_tiles(std::size_t cols, const Block& block) {
  std::size_t j0 = 0;
  for (; j0 + V::W < cols; j0 += 2 * V::W) block(j0, Const<2>{});
  if (j0 < cols) block(j0, Const<1>{});
}

// C rows [lo, hi) (row stride m) of X * B over k inner steps, X as in
// tile, B unpacked (row stride m). The last lane of a column tile loads
// and stores only the columns before m.
template <class V>
void gemm_band(const float* x, std::size_t rs, std::size_t qs, std::size_t k, const float* B,
               float* C, std::size_t m, std::size_t lo, std::size_t hi) {
  for_column_tiles<V>(m, [&](std::size_t j0, auto lanes) {
    constexpr std::size_t P = decltype(lanes)::value;
    const float* b[P];
    for (std::size_t v = 0; v < P; ++v) b[v] = B + j0 + v * V::W;
    const std::size_t live = std::min(m - j0, P * V::W) - (P - 1) * V::W;
    const auto band = [&](auto tail) {
      for_row_tiles<V::kAccumulators / P>(lo, hi, [&](std::size_t i, auto rows) {
        run_tile<V, decltype(rows)::value, P, decltype(tail)::value>(
            x + i * rs, rs, qs, k, b, m, live,
            [&](std::size_t r, std::size_t v, typename V::vec sum) {
              store_n<V>(C + (i + r) * m + j0 + v * V::W, sum, v + 1 == P ? live : V::W);
            });
      });
    };
    if (live == V::W) {
      band(std::false_type{});
    } else {
      band(std::true_type{});
    }
  });
}

template <class V>
void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k, std::size_t m,
                     std::size_t lo, std::size_t hi) {
  gemm_band<V>(A, k, 1, k, B, C, m, lo, hi);
}

// C = A^T * B: C row i is A column i.
template <class V>
void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n, std::size_t k,
                    std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band<V>(A, 1, k, n, B, C, m, lo, hi);
}

// Fused epilogue for one lane: y[0, live) = act(z). tanh and softplus
// bounce through a stack buffer to the scalar overload.
template <class V>
inline void act_store(Activation act, typename V::vec z, float* y, std::size_t live) {
  if (vectorizable(act)) {
    store_n<V>(y, act_v<V>(act, z), live);
    return;
  }
  alignas(64) float tmp[V::W];
  V::store(tmp, z);
  for (std::size_t j = 0; j < live; ++j) y[j] = nn::activate(act, tmp[j]);
}

// Y rows [lo, hi) of act(X * W + bias) over the packed panels. Panel data
// is zero-padded, so B lanes load whole; bias loads and y stores stay
// inside [0, n). Each broadcast of x feeds P lanes' chains.
template <class V, class ActOf>
void dense_rows(const float* x, const PackedWeights& w, const float* bias, ActOf act_of,
                float* y, std::size_t lo, std::size_t hi) {
  static_assert(kPanelWidth % V::W == 0, "a lane never straddles two packed panels");
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  for_column_tiles<V>(n, [&](std::size_t j0, auto lanes) {
    constexpr std::size_t P = decltype(lanes)::value;
    const float* b[P];
    std::size_t live[P];
    typename V::vec biasv[P];
    for (std::size_t v = 0; v < P; ++v) {
      const std::size_t j = j0 + v * V::W;
      b[v] = w.panel(j / kPanelWidth) + j % kPanelWidth;
      live[v] = std::min(V::W, n - j);
      biasv[v] = V::load_first(bias + j, live[v]);
    }
    for_row_tiles<V::kAccumulators / P>(lo, hi, [&](std::size_t i, auto rows) {
      run_tile<V, decltype(rows)::value, P, false>(
          x + i * k, k, 1, k, b, kPanelWidth, V::W,
          [&](std::size_t r, std::size_t v, typename V::vec sum) {
            act_store<V>(act_of(), V::add(sum, biasv[v]), y + (i + r) * n + j0 + v * V::W,
                         live[v]);
          });
    });
  });
}

// The hot-path root of every backend's dense_bias_act_f<V>. It sits at
// namespace scope because GCC never emits a used static local of a
// function template instantiation, so inside the template it would vanish.
GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");

template <class V>
void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  with_act(act, [&](auto act_of) { dense_rows<V>(x, w, bias, act_of, y, lo, hi); });
}

template <class V>
constexpr KernelTable kernel_table(const char* name) {
  return {name,
          gemm_row_band_f<V>,
          gemm_tn_band_f<V>,
          add_row_vector_f<V>,
          column_sums_f<V>,
          activate_f<V>,
          activate_derivative_f<V>,
          dense_bias_act_f<V>};
}

}  // namespace
}  // namespace gpufreq::nn::kernels
