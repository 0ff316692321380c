// AVX-512 backend. This is the ONLY translation unit compiled with
// -mavx512f -mavx512bw (see src/nn/CMakeLists.txt), so the rest of the
// binary stays runnable on any x86-64; dispatch.cpp only hands out this
// table after checking CPUID for both feature bits. When the compiler
// can't target AVX-512 the real implementation compiles away and
// avx512_table() returns nullptr.
//
// Shape: 32-wide column tiles — a PAIR of 16-float zmm lanes, i.e. two
// packed panels side by side — with __mmask16 masked loads/stores on every
// tail, and an 8-row register tile (16 zmm accumulators + 2 B lanes in
// the 32-register budget). One tile template serves every shape: a band's
// row tail runs as one shorter tile and an odd final panel (a 1-wide
// output layer) as a 16-row, 16-wide one, so every path keeps several
// independent fma chains in flight instead of waiting on one. One packed panel row is
// exactly one 64-byte zmm load, so the fused dense_bias_act streams
// weights at full cache-line granularity and shares each broadcast x
// element across both panels.
//
// NaN handling matches the other backends: _mm512_min_ps/_mm512_max_ps
// return their SECOND operand when either input is NaN (clamps are written
// constant-first to keep NaN flowing), and ordered mask compares
// (_CMP_GT_OQ, false on NaN) route NaN lanes into the propagating branch —
// ReLU maps NaN to 0 exactly like the scalar reference.
//
// The kernels need only AVX512F; dispatch also checks AVX512BW, which
// this TU is compiled with.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "gpufreq/util/hot_path.hpp"
#include "row_tiles.hpp"
#include "scalar_math.hpp"

namespace gpufreq::nn::kernels {

namespace {

constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 32;
static_assert(kNr == 2 * kPanelWidth, "column tile is a pair of packed panels");

// Lane mask selecting the first `count` of 16 lanes (count <= 16).
inline __mmask16 mask_for(std::size_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

// Vector port of scalar_math::fast_expf, mask-register edition of the
// avx2 exp256: same range reduction and polynomial. NaN survives the
// constant-first clamps and poisons the polynomial; the ordered
// self-compare zeroes NaN lanes of fx so the int conversion stays in
// range, and y * 2^0 keeps the NaN.
inline __m512 exp512(__m512 x) {
  x = _mm512_min_ps(_mm512_set1_ps(88.0f), x);
  x = _mm512_max_ps(_mm512_set1_ps(-87.0f), x);
  const __m512 fx = _mm512_roundscale_ps(
      _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f), _mm512_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_add_ps(_mm512_fmadd_ps(_mm512_mul_ps(y, x), x, x), _mm512_set1_ps(1.0f));
  const __mmask16 ord = _mm512_cmp_ps_mask(fx, fx, _CMP_ORD_Q);
  const __m512 fx_int = _mm512_maskz_mov_ps(ord, fx);
  const __m512i biased =
      _mm512_add_epi32(_mm512_cvtps_epi32(fx_int), _mm512_set1_epi32(127));
  const __m512 pow2 = _mm512_castsi512_ps(_mm512_slli_epi32(biased, 23));
  return _mm512_mul_ps(y, pow2);
}

// One 16-lane activation step for the acts worth vectorizing; the
// remaining acts (tanh, softplus) go through the scalar reference.
inline __m512 act16(Activation act, __m512 z) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __mmask16 gt = _mm512_cmp_ps_mask(z, zero, _CMP_GT_OQ);
  switch (act) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      // maskz move, not max: scalar relu maps NaN to 0 (z > 0 is false),
      // and the backends must agree on that edge.
      return _mm512_maskz_mov_ps(gt, z);
    case Activation::kElu: {
      const __m512 neg = _mm512_sub_ps(exp512(z), one);
      return _mm512_mask_blend_ps(gt, neg, z);
    }
    case Activation::kLeakyRelu: {
      const __m512 neg = _mm512_mul_ps(_mm512_set1_ps(scalar_math::kLeakySlope), z);
      return _mm512_mask_blend_ps(gt, neg, z);
    }
    case Activation::kSelu: {
      const __m512 pos = _mm512_mul_ps(_mm512_set1_ps(kSeluScale), z);
      const __m512 neg = _mm512_mul_ps(_mm512_set1_ps(kSeluScale * kSeluAlpha),
                                       _mm512_sub_ps(exp512(z), one));
      return _mm512_mask_blend_ps(gt, neg, pos);
    }
    case Activation::kSigmoid:
      return _mm512_div_ps(one, _mm512_add_ps(one, exp512(_mm512_sub_ps(zero, z))));
    case Activation::kSoftsign:
      return _mm512_div_ps(z, _mm512_add_ps(one, _mm512_abs_ps(z)));
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
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, act16(act, _mm512_loadu_ps(z + i)));
  }
  if (i < n) {
    // Masked tail: inactive lanes load as 0.0 (every vectorizable act is
    // total there) and the store touches only the live lanes.
    const __mmask16 msk = mask_for(n - i);
    _mm512_mask_storeu_ps(out + i, msk, act16(act, _mm512_maskz_loadu_ps(msk, z + i)));
  }
}

// One 16-lane derivative step: the scalar activate_derivative expressions,
// with exp through exp512 (bitwise equal to fast_expf under FMA
// contraction) and the ordered compare mask sending NaN to the x <= 0
// branch, like the scalar ternaries.
inline __m512 deriv16(Activation act, __m512 z) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __mmask16 gt = _mm512_cmp_ps_mask(z, _mm512_setzero_ps(), _CMP_GT_OQ);
  switch (act) {
    case Activation::kLinear:
      return one;
    case Activation::kRelu:
      return _mm512_maskz_mov_ps(gt, one);
    case Activation::kElu:
      return _mm512_mask_blend_ps(gt, exp512(z), one);
    case Activation::kLeakyRelu:
      return _mm512_mask_blend_ps(gt, _mm512_set1_ps(scalar_math::kLeakySlope), one);
    case Activation::kSelu:
      return _mm512_mask_blend_ps(
          gt, _mm512_mul_ps(_mm512_set1_ps(kSeluScale * kSeluAlpha), exp512(z)),
          _mm512_set1_ps(kSeluScale));
    case Activation::kSigmoid: {
      const __m512 s = act16(Activation::kSigmoid, z);
      return _mm512_mul_ps(s, _mm512_sub_ps(one, s));
    }
    case Activation::kSoftsign: {
      const __m512 d = _mm512_add_ps(one, _mm512_abs_ps(z));
      return _mm512_div_ps(one, _mm512_mul_ps(d, d));
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
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, deriv16(act, _mm512_loadu_ps(z + i)));
  }
  if (i < n) {
    const __mmask16 msk = mask_for(n - i);
    _mm512_mask_storeu_ps(out + i, msk, deriv16(act, _mm512_maskz_loadu_ps(msk, z + i)));
  }
}

// R x 16P register tile of X * B, X(r, q) = x[r * rs + q * qs] (rs = k,
// qs = 1 walks a row-major A; rs = 1, qs = k walks A^T), against P
// 16-float column lanes of B (lane v at b[v], row stride ldb, loaded
// through mask m[v]); emit(r, v, sum) receives each finished sum. Every
// element is one fma chain from 0 with q ascending, whatever R, P or the
// band split, so the tiling never moves a result bit (test_nn_kernels
// checks it against per-element references). The emit loop is unrolled
// even around a large epilogue (SELU): an acc[r][v] indexed at run time
// would live on the stack, stored on every q step.
template <std::size_t R, std::size_t P, class Emit>
inline void tile(const float* x, std::size_t rs, std::size_t qs, std::size_t k,
                 const float* const b[P], std::size_t ldb, const __mmask16 m[P],
                 const Emit& emit) {
  __m512 acc[R][P];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < P; ++v) acc[r][v] = _mm512_setzero_ps();
  }
  for (std::size_t q = 0; q < k; ++q) {
    __m512 bq[P];
    for (std::size_t v = 0; v < P; ++v) bq[v] = _mm512_maskz_loadu_ps(m[v], b[v] + q * ldb);
    for (std::size_t r = 0; r < R; ++r) {
      const __m512 xv = _mm512_set1_ps(x[r * rs + q * qs]);
      for (std::size_t v = 0; v < P; ++v) acc[r][v] = _mm512_fmadd_ps(xv, bq[v], acc[r][v]);
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < P; ++v) emit(r, v, acc[r][v]);
  }
}

// C rows [lo, hi) (row stride m) of X * B over k inner steps, X as in
// tile, B unpacked (row stride m): 32-wide column tiles with masked loads
// and stores on the column tail.
void gemm_band(const float* x, std::size_t rs, std::size_t qs, std::size_t k, const float* B,
               float* C, std::size_t m, std::size_t lo, std::size_t hi) {
  for (std::size_t j0 = 0; j0 < m; j0 += kNr) {
    const std::size_t jw = std::min(kNr, m - j0);
    const __mmask16 msk[2] = {mask_for(std::min<std::size_t>(jw, kPanelWidth)),
                              mask_for(jw > kPanelWidth ? jw - kPanelWidth : 0)};
    const float* const lane[2] = {B + j0, B + j0 + kPanelWidth};
    for_row_tiles<kMr>(lo, hi, [&](std::size_t i, auto rows) {
      tile<decltype(rows)::value, 2>(
          x + i * rs, rs, qs, k, lane, m, msk, [&](std::size_t r, std::size_t v, __m512 sum) {
            _mm512_mask_storeu_ps(C + (i + r) * m + j0 + v * kPanelWidth, msk[v], sum);
          });
    });
  }
}

void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k,
                     std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, k, 1, k, B, C, m, lo, hi);
}

// C = A^T * B: C row i is A column i.
void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  gemm_band(A, 1, k, n, B, C, m, lo, hi);
}

void add_row_vector_f(float* m, const float* v, std::size_t rows, std::size_t cols) {
  const __mmask16 tail = mask_for(cols % 16);
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(row + j,
                       _mm512_add_ps(_mm512_loadu_ps(row + j), _mm512_loadu_ps(v + j)));
    }
    if (j < cols) {
      _mm512_mask_storeu_ps(row + j, tail,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(tail, row + j),
                                          _mm512_maskz_loadu_ps(tail, v + j)));
    }
  }
}

void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  const __mmask16 tail = mask_for(cols % 16);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    std::size_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out + j,
                       _mm512_add_ps(_mm512_loadu_ps(out + j), _mm512_loadu_ps(row + j)));
    }
    if (j < cols) {
      _mm512_mask_storeu_ps(out + j, tail,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(tail, out + j),
                                          _mm512_maskz_loadu_ps(tail, row + j)));
    }
  }
}

// Fused epilogue for one 16-lane panel slice: y = act(z), stored through
// `msk` so nothing ever touches columns past jn. Non-vectorizable acts
// bounce through a stack buffer and the scalar activation.
inline void act_store(Activation act, __m512 z, float* y, __mmask16 msk, std::size_t jn) {
  if (vectorizable(act)) {
    _mm512_mask_storeu_ps(y, msk, act16(act, z));
    return;
  }
  alignas(64) float tmp[kPanelWidth];
  _mm512_store_ps(tmp, z);
  detail::scalar_table().activate(act, tmp, y, jn);
}

// Panels [p, p + P) over rows [lo, hi): one R x 16P tile per row block.
// Panel data is zero-padded, so the masks change no loaded value; they
// keep the bias loads and y stores inside [0, n). Each broadcast of x
// feeds P panels' fma chains.
template <std::size_t P, class ActOf>
inline void dense_panels(const float* x, const PackedWeights& w, const float* bias,
                         ActOf act_of, float* y, std::size_t p, std::size_t lo,
                         std::size_t hi) {
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  const float* lane[P];
  __mmask16 msk[P];
  std::size_t jn[P];
  __m512 biasv[P];
  for (std::size_t v = 0; v < P; ++v) {
    const std::size_t j0 = (p + v) * kPanelWidth;
    lane[v] = w.panel(p + v);
    jn[v] = std::min(kPanelWidth, n - j0);
    msk[v] = mask_for(jn[v]);
    biasv[v] = _mm512_maskz_loadu_ps(msk[v], bias + j0);
  }
  // 16 accumulators either way: 8 rows of a panel pair, 16 of one panel.
  for_row_tiles<kMr * 2 / P>(lo, hi, [&](std::size_t i, auto rows) {
    tile<decltype(rows)::value, P>(
        x + i * k, k, 1, k, lane, kPanelWidth, msk, [&](std::size_t r, std::size_t v, __m512 sum) {
          float* yv = y + (i + r) * n + (p + v) * kPanelWidth;
          act_store(act_of(), _mm512_add_ps(sum, biasv[v]), yv, msk[v], jn[v]);
        });
  });
}

// Panel pairs as 32-wide tiles, then an odd final panel (the whole of a
// 1-wide output layer) as a 16-wide one.
template <class ActOf>
void dense_rows(const float* x, const PackedWeights& w, const float* bias, ActOf act_of,
                float* y, std::size_t lo, std::size_t hi) {
  const std::size_t panels = w.panel_count();
  std::size_t p = 0;
  for (; p + 2 <= panels; p += 2) dense_panels<2>(x, w, bias, act_of, y, p, lo, hi);
  if (p < panels) dense_panels<1>(x, w, bias, act_of, y, p, lo, hi);
}

void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");
  // The activation is resolved once per call: the inference nets' two
  // get their own instantiation with act16's switch folded away.
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

const KernelTable* avx512_table() {
  static const KernelTable table = {
      "avx512",      gemm_row_band_f, gemm_tn_band_f,        add_row_vector_f,
      column_sums_f, activate_f,      activate_derivative_f, dense_bias_act_f,
  };
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX-512F+BW target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx512_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
