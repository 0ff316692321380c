// AVX2+FMA backend. This is the ONLY translation unit compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt), so the rest of the binary
// stays runnable on any x86-64; dispatch.cpp only hands out this table
// after checking CPUID. When the compiler can't target AVX2 the real
// implementation compiles away and avx2_table() returns nullptr.
//
// NaN handling is deliberate everywhere: _mm256_min_ps/_mm256_max_ps
// return their SECOND operand when either input is NaN, so clamps are
// written constant-first to keep NaN flowing through, and ordered
// compares (_CMP_GT_OQ, false on NaN) route NaN lanes into the branch
// that propagates it.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "gpufreq/util/hot_path.hpp"
#include "row_tiles.hpp"
#include "scalar_math.hpp"

namespace gpufreq::nn::kernels {

namespace {

constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
static_assert(kNr == kPanelWidth, "packed panels must match the GEMM tile width");

// Vector port of scalar_math::fast_expf — same range reduction and
// polynomial, evaluated with explicit FMAs. NaN lanes survive the clamps
// (constant-first min/max) and poison the polynomial; the ordered
// self-compare squashes NaN in fx so the int conversion stays in range,
// and y * 2^0 keeps the NaN.
inline __m256 exp256(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(88.0f), x);
  x = _mm256_max_ps(_mm256_set1_ps(-87.0f), x);
  const __m256 fx =
      _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                                      _mm256_set1_ps(0.5f)));
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_add_ps(_mm256_fmadd_ps(_mm256_mul_ps(y, x), x, x), _mm256_set1_ps(1.0f));
  const __m256 fx_int = _mm256_and_ps(fx, _mm256_cmp_ps(fx, fx, _CMP_ORD_Q));
  const __m256i biased =
      _mm256_add_epi32(_mm256_cvtps_epi32(fx_int), _mm256_set1_epi32(127));
  const __m256 pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
  return _mm256_mul_ps(y, pow2);
}

// One 8-lane activation step for the acts worth vectorizing; the
// remaining acts (tanh, softplus) go through the scalar reference.
inline __m256 act8(Activation act, __m256 z) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  switch (act) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      // blend, not max: scalar relu maps NaN to 0 (z > 0 is false), and
      // the backends must agree on that edge.
      return _mm256_blendv_ps(zero, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    case Activation::kElu: {
      const __m256 neg = _mm256_sub_ps(exp256(z), one);
      return _mm256_blendv_ps(neg, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kLeakyRelu: {
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(scalar_math::kLeakySlope), z);
      return _mm256_blendv_ps(neg, z, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kSelu: {
      const __m256 pos = _mm256_mul_ps(_mm256_set1_ps(kSeluScale), z);
      const __m256 neg = _mm256_mul_ps(_mm256_set1_ps(kSeluScale * kSeluAlpha),
                                       _mm256_sub_ps(exp256(z), one));
      return _mm256_blendv_ps(neg, pos, _mm256_cmp_ps(z, zero, _CMP_GT_OQ));
    }
    case Activation::kSigmoid:
      return _mm256_div_ps(one, _mm256_add_ps(one, exp256(_mm256_sub_ps(zero, z))));
    case Activation::kSoftsign: {
      const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
      return _mm256_div_ps(z, _mm256_add_ps(one, _mm256_and_ps(z, abs_mask)));
    }
    default:
      return z;  // unreachable: callers filter tanh/softplus first
  }
}

inline bool vectorizable(Activation act) {
  return act != Activation::kTanh && act != Activation::kSoftplus;
}

void activate_f(Activation act, const float* z, float* out, std::size_t n) {
  if (!vectorizable(act)) {
    detail::scalar_table().activate(act, z, out, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, act8(act, _mm256_loadu_ps(z + i)));
  }
  if (i < n) detail::scalar_table().activate(act, z + i, out + i, n - i);
}

// One 8-lane derivative step: the scalar activate_derivative expressions,
// with exp through exp256 (bitwise equal to fast_expf under FMA
// contraction) and the ordered compare sending NaN to the x <= 0 branch,
// like the scalar ternaries.
inline __m256 deriv8(Activation act, __m256 z) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 gt = _mm256_cmp_ps(z, _mm256_setzero_ps(), _CMP_GT_OQ);
  switch (act) {
    case Activation::kLinear:
      return one;
    case Activation::kRelu:
      return _mm256_and_ps(gt, one);
    case Activation::kElu:
      return _mm256_blendv_ps(exp256(z), one, gt);
    case Activation::kLeakyRelu:
      return _mm256_blendv_ps(_mm256_set1_ps(scalar_math::kLeakySlope), one, gt);
    case Activation::kSelu:
      return _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(kSeluScale * kSeluAlpha), exp256(z)),
                              _mm256_set1_ps(kSeluScale), gt);
    case Activation::kSigmoid: {
      const __m256 s = act8(Activation::kSigmoid, z);
      return _mm256_mul_ps(s, _mm256_sub_ps(one, s));
    }
    case Activation::kSoftsign: {
      const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
      const __m256 d = _mm256_add_ps(one, _mm256_and_ps(z, abs_mask));
      return _mm256_div_ps(one, _mm256_mul_ps(d, d));
    }
    default:
      return one;  // unreachable: callers filter tanh/softplus first
  }
}

void activate_derivative_f(Activation act, const float* z, float* out, std::size_t n) {
  if (!vectorizable(act)) {
    detail::scalar_table().activate_derivative(act, z, out, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, deriv8(act, _mm256_loadu_ps(z + i)));
  }
  if (i < n) detail::scalar_table().activate_derivative(act, z + i, out + i, n - i);
}

// R x 8NV register tile of X * B, X(r, q) = x[r * rs + q * qs] (rs = k,
// qs = 1 walks a row-major A; rs = 1, qs = k walks A^T), against NV
// 8-float lanes of B (row stride ldb); emit(r, v, sum) receives each
// finished sum. Up to 12 accumulators + 2 B lanes fit the 16 ymm budget.
// Every element is one fma chain from 0 with q ascending, whatever R, NV
// or the band split, so the tiling never moves a result bit
// (test_nn_kernels checks it against per-element references). The emit
// loop is unrolled, and the tile is its own function: an acc[r][v]
// indexed at run time, or a tile inlined next to its siblings and the
// runtime-act epilogue, leaves accumulators on the stack, stored on every
// q step.
template <std::size_t R, std::size_t NV, class Emit>
[[gnu::noinline]] void tile(const float* x, std::size_t rs, std::size_t qs, std::size_t k,
                            const float* b, std::size_t ldb, const Emit& emit) {
  __m256 acc[R][NV];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::size_t q = 0; q < k; ++q) {
    __m256 bq[NV];
    for (std::size_t v = 0; v < NV; ++v) bq[v] = _mm256_loadu_ps(b + q * ldb + 8 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 xv = _mm256_broadcast_ss(x + r * rs + q * qs);
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = _mm256_fmadd_ps(xv, bq[v], acc[r][v]);
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) emit(r, v, acc[r][v]);
  }
}

// i-p-j fallback for row/column tails; vectorizes over j when a full lane
// fits, otherwise plain scalar. Accumulation stays p-ascending.
inline void tail_rows(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                      float* c, std::size_t ldc, std::size_t k,
                      std::size_t row_begin, std::size_t row_end,
                      std::size_t col_begin, std::size_t col_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = col_begin; j < col_end; ++j) ci[j] = 0.0f;
    const float* ai = a + i * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* bp = b + p * ldb;
      for (std::size_t j = col_begin; j < col_end; ++j) ci[j] += aip * bp[j];
    }
  }
}

void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k,
                     std::size_t m, std::size_t lo, std::size_t hi) {
  for (std::size_t j0 = 0; j0 + kNr <= m; j0 += kNr) {
    std::size_t i0 = lo;
    for (; i0 + kMr <= hi; i0 += kMr) {
      tile<kMr, 2>(A + i0 * k, k, 1, k, B + j0, m, [&](std::size_t r, std::size_t v, __m256 sum) {
        _mm256_storeu_ps(C + (i0 + r) * m + j0 + 8 * v, sum);
      });
    }
    tail_rows(A, k, B, m, C, m, k, i0, hi, j0, j0 + kNr);
  }
  const std::size_t j_tail = m - m % kNr;
  if (j_tail < m) tail_rows(A, k, B, m, C, m, k, lo, hi, j_tail, m);
}

// C = A^T * B over one column block of NV lanes: C row i is A column i.
template <std::size_t NV>
inline void tn_column_block(const float* A, const float* B, float* C, std::size_t n,
                            std::size_t k, std::size_t m, std::size_t lo, std::size_t hi,
                            std::size_t j0) {
  for_row_tiles<kMr>(lo, hi, [&](std::size_t i, auto rows) {
    tile<decltype(rows)::value, NV>(A + i, 1, k, n, B + j0, m,
                                    [&](std::size_t r, std::size_t v, __m256 sum) {
                                      _mm256_storeu_ps(C + (i + r) * m + j0 + 8 * v, sum);
                                    });
  });
}

void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  const std::size_t m16 = m - m % kNr;
  const std::size_t m8 = m - m % 8;
  for (std::size_t j0 = 0; j0 < m16; j0 += kNr) tn_column_block<2>(A, B, C, n, k, m, lo, hi, j0);
  if (m16 < m8) tn_column_block<1>(A, B, C, n, k, m, lo, hi, m16);
  if (m8 == m) return;
  // Columns past the last full 8-float lane: the scalar `c += a * b`,
  // accumulated in memory, which this -mfma TU contracts to the same fma.
  for (std::size_t i = lo; i < hi; ++i) {
    float* ci = C + i * m;
    for (std::size_t j = m8; j < m; ++j) ci[j] = 0.0f;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const float* ap = A + p * k;
    const float* bp = B + p * m;
    for (std::size_t i = lo; i < hi; ++i) {
      const float api = ap[i];
      float* ci = C + i * m;
      for (std::size_t j = m8; j < m; ++j) ci[j] += api * bp[j];
    }
  }
}

void add_row_vector_f(float* m, const float* v, std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j), _mm256_loadu_ps(v + j)));
    }
    for (; j < cols; ++j) row[j] += v[j];
  }
}

void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(row + j)));
    }
    for (; j < cols; ++j) out[j] += row[j];
  }
}

// Fused epilogue for lane v (columns [8v, 8v + 8)) of one tile row:
// y = act(acc + bias). Full-width panels store straight from registers;
// tail panels bounce through a stack buffer so no load or store ever
// leaves [0, jn).
inline void bias_act_store(Activation act, __m256 acc, const float* bias, float* y,
                           std::size_t jn, std::size_t v) {
  if (jn == kNr && vectorizable(act)) {
    _mm256_storeu_ps(y + 8 * v, act8(act, _mm256_add_ps(acc, _mm256_loadu_ps(bias + 8 * v))));
    return;
  }
  if (jn <= 8 * v) return;
  const std::size_t live = std::min<std::size_t>(8, jn - 8 * v);
  alignas(32) float tmp[8];
  _mm256_store_ps(tmp, acc);
  for (std::size_t j = 0; j < live; ++j) tmp[j] += bias[8 * v + j];
  detail::scalar_table().activate(act, tmp, y + 8 * v, live);
}

template <class ActOf>
void dense_rows(const float* x, const PackedWeights& w, const float* bias, ActOf act_of,
                float* y, std::size_t lo, std::size_t hi) {
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  for (std::size_t p = 0; p < w.panel_count(); ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, n - j0);
    const float* B = w.panel(p);
    for_row_tiles<kMr>(lo, hi, [&](std::size_t i, auto rows) {
      tile<decltype(rows)::value, 2>(x + i * k, k, 1, k, B, kPanelWidth,
                                     [&](std::size_t r, std::size_t v, __m256 sum) {
                                       bias_act_store(act_of(), sum, bias + j0,
                                                      y + (i + r) * n + j0, jn, v);
                                     });
    });
  }
}

void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");
  // The activation is resolved once per call: the inference nets' two
  // get their own instantiation with act8's switch folded away.
  switch (act) {
    case Activation::kLinear:
      return dense_rows(x, w, bias, [] { return Activation::kLinear; }, y, lo, hi);
    case Activation::kSelu:
      return dense_rows(x, w, bias, [] { return Activation::kSelu; }, y, lo, hi);
    default:
      return dense_rows(x, w, bias, [act] { return act; }, y, lo, hi);
  }
}

}  // namespace

namespace detail {

const KernelTable* avx2_table() {
  static const KernelTable table = {
      "avx2",        gemm_row_band_f, gemm_tn_band_f,        add_row_vector_f,
      column_sums_f, activate_f,      activate_derivative_f, dense_bias_act_f,
  };
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX2+FMA target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
