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
// the 32-register budget). One packed panel row is exactly one 64-byte
// zmm load, so the fused dense_bias_act streams weights at full cache-line
// granularity and shares each broadcast x element across both panels.
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

// 8x32 register tile against an UNPACKED B (ld = ldb): 16 accumulators +
// 2 B lanes. Masked B loads/C stores make the same kernel serve full and
// tail column blocks; accumulation stays p-ascending.
inline void tile_accumulate(const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, std::size_t k, __mmask16 m0,
                            __mmask16 m1, __m512 acc[kMr][2]) {
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 bl = _mm512_maskz_loadu_ps(m0, b + p * ldb);
    const __m512 bh = _mm512_maskz_loadu_ps(m1, b + p * ldb + 16);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + p]);
      acc[r][0] = _mm512_fmadd_ps(av, bl, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, bh, acc[r][1]);
    }
  }
}

// Single-row variant for row tails (same order, two accumulator chains).
inline void row_accumulate(const float* a, const float* b, std::size_t ldb,
                           std::size_t k, __mmask16 m0, __mmask16 m1, __m512& accl,
                           __m512& acch) {
  accl = _mm512_setzero_ps();
  acch = _mm512_setzero_ps();
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 av = _mm512_set1_ps(a[p]);
    accl = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m0, b + p * ldb), accl);
    acch = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m1, b + p * ldb + 16), acch);
  }
}

void gemm_row_band_f(const float* A, const float* B, float* C, std::size_t k,
                     std::size_t m, std::size_t lo, std::size_t hi) {
  for (std::size_t j0 = 0; j0 < m; j0 += kNr) {
    const std::size_t jw = std::min(kNr, m - j0);
    const __mmask16 m0 = mask_for(std::min<std::size_t>(jw, kPanelWidth));
    const __mmask16 m1 = mask_for(jw > kPanelWidth ? jw - kPanelWidth : 0);
    std::size_t i0 = lo;
    __m512 acc[kMr][2];
    for (; i0 + kMr <= hi; i0 += kMr) {
      tile_accumulate(A + i0 * k, k, B + j0, m, k, m0, m1, acc);
      for (std::size_t r = 0; r < kMr; ++r) {
        float* c = C + (i0 + r) * m + j0;
        _mm512_mask_storeu_ps(c, m0, acc[r][0]);
        _mm512_mask_storeu_ps(c + 16, m1, acc[r][1]);
      }
    }
    for (; i0 < hi; ++i0) {
      __m512 al, ah;
      row_accumulate(A + i0 * k, B + j0, m, k, m0, m1, al, ah);
      float* c = C + i0 * m + j0;
      _mm512_mask_storeu_ps(c, m0, al);
      _mm512_mask_storeu_ps(c + 16, m1, ah);
    }
  }
}

// R x 32 register tile of C = A^T * B at (i0, j0), columns masked by
// m0/m1: C row i is A column i, so each p step broadcasts A(p, i0 + r)
// against one (masked) B row. Every element is one fma chain from 0 with
// p ascending, whatever the tile or band split, so the tiling never moves
// a result bit (test_nn_kernels checks it against a memory-accumulating
// reference).
template <std::size_t R>
inline void tn_accumulate(const float* A, const float* B, std::size_t n, std::size_t k,
                          std::size_t m, std::size_t i0, std::size_t j0, __mmask16 m0,
                          __mmask16 m1, __m512 acc[][2]) {
  for (std::size_t r = 0; r < R; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < n; ++p) {
    const __m512 bl = _mm512_maskz_loadu_ps(m0, B + p * m + j0);
    const __m512 bh = _mm512_maskz_loadu_ps(m1, B + p * m + j0 + 16);
    const float* ap = A + p * k + i0;
    for (std::size_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r]);
      acc[r][0] = _mm512_fmadd_ps(av, bl, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, bh, acc[r][1]);
    }
  }
}

void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  for (std::size_t j0 = 0; j0 < m; j0 += kNr) {
    const std::size_t jw = std::min(kNr, m - j0);
    const __mmask16 m0 = mask_for(std::min<std::size_t>(jw, kPanelWidth));
    const __mmask16 m1 = mask_for(jw > kPanelWidth ? jw - kPanelWidth : 0);
    std::size_t i = lo;
    __m512 acc[kMr][2];
    for (; i + kMr <= hi; i += kMr) {
      tn_accumulate<kMr>(A, B, n, k, m, i, j0, m0, m1, acc);
      for (std::size_t r = 0; r < kMr; ++r) {
        float* c = C + (i + r) * m + j0;
        _mm512_mask_storeu_ps(c, m0, acc[r][0]);
        _mm512_mask_storeu_ps(c + 16, m1, acc[r][1]);
      }
    }
    for (; i < hi; ++i) {
      tn_accumulate<1>(A, B, n, k, m, i, j0, m0, m1, acc);
      float* c = C + i * m + j0;
      _mm512_mask_storeu_ps(c, m0, acc[0][0]);
      _mm512_mask_storeu_ps(c + 16, m1, acc[0][1]);
    }
  }
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

// Fused epilogue for one 16-lane panel slice: y = act(acc + bias), stored
// through `msk` so nothing ever touches columns past jn. Non-vectorizable
// acts bounce through a stack buffer and the scalar activation.
inline void act_store(Activation act, __m512 z, float* y, __mmask16 msk,
                      std::size_t jn) {
  if (vectorizable(act)) {
    _mm512_mask_storeu_ps(y, msk, act16(act, z));
    return;
  }
  alignas(64) float tmp[kPanelWidth];
  _mm512_store_ps(tmp, z);
  detail::scalar_table().activate(act, tmp, y, jn);
}

inline void bias_act_store(Activation act, __m512 acc, __m512 biasv, float* y,
                           __mmask16 msk, std::size_t jn) {
  act_store(act, _mm512_add_ps(acc, biasv), y, msk, jn);
}

void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  const std::size_t panels = w.panel_count();
  std::size_t p = 0;
  // Panel pairs: a 32-wide column tile. Panel data is zero-padded so
  // weight loads are always full zmm; only the y stores of the LAST panel
  // need a mask. Each broadcast of x feeds both panels' FMA chains.
  for (; p + 2 <= panels; p += 2) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn1 = std::min(kPanelWidth, n - j0 - kPanelWidth);
    const __mmask16 full = mask_for(kPanelWidth);
    const __mmask16 m1 = mask_for(jn1);
    const float* B0 = w.panel(p);
    const float* B1 = w.panel(p + 1);
    const __m512 bias0 = _mm512_maskz_loadu_ps(full, bias + j0);
    const __m512 bias1 = _mm512_maskz_loadu_ps(m1, bias + j0 + kPanelWidth);
    std::size_t i = lo;
    __m512 acc[kMr][2];
    for (; i + kMr <= hi; i += kMr) {
      for (std::size_t r = 0; r < kMr; ++r) {
        acc[r][0] = _mm512_setzero_ps();
        acc[r][1] = _mm512_setzero_ps();
      }
      const float* xi = x + i * k;
      for (std::size_t q = 0; q < k; ++q) {
        const __m512 b0 = _mm512_loadu_ps(B0 + q * kPanelWidth);
        const __m512 b1 = _mm512_loadu_ps(B1 + q * kPanelWidth);
        for (std::size_t r = 0; r < kMr; ++r) {
          const __m512 xv = _mm512_set1_ps(xi[r * k + q]);
          acc[r][0] = _mm512_fmadd_ps(xv, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_ps(xv, b1, acc[r][1]);
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        float* yr = y + (i + r) * n + j0;
        bias_act_store(act, acc[r][0], bias0, yr, full, kPanelWidth);
        bias_act_store(act, acc[r][1], bias1, yr + kPanelWidth, m1, jn1);
      }
    }
    // Row tail: one row per iteration, same q-ascending order.
    for (; i < hi; ++i) {
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      const float* xi = x + i * k;
      for (std::size_t q = 0; q < k; ++q) {
        const __m512 xv = _mm512_set1_ps(xi[q]);
        a0 = _mm512_fmadd_ps(xv, _mm512_loadu_ps(B0 + q * kPanelWidth), a0);
        a1 = _mm512_fmadd_ps(xv, _mm512_loadu_ps(B1 + q * kPanelWidth), a1);
      }
      float* yr = y + i * n + j0;
      bias_act_store(act, a0, bias0, yr, full, kPanelWidth);
      bias_act_store(act, a1, bias1, yr + kPanelWidth, m1, jn1);
    }
  }
  // Odd final panel: single 16-wide tile with a masked store.
  if (p < panels) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, n - j0);
    const __mmask16 msk = mask_for(jn);
    const float* B = w.panel(p);
    const __m512 biasv = _mm512_maskz_loadu_ps(msk, bias + j0);
    for (std::size_t i = lo; i < hi; ++i) {
      __m512 a0 = _mm512_setzero_ps();
      const float* xi = x + i * k;
      for (std::size_t q = 0; q < k; ++q) {
        a0 = _mm512_fmadd_ps(_mm512_set1_ps(xi[q]), _mm512_loadu_ps(B + q * kPanelWidth),
                             a0);
      }
      bias_act_store(act, a0, biasv, y + i * n + j0, msk, jn);
    }
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
