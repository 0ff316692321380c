// Portable reference backend: the register-tiled kernels the nn stack
// shipped with before runtime dispatch existed, plus the fused
// dense_bias_act inference kernel. No intrinsics — the explicit
// GCC/Clang vector extensions below compile on any target (lowered to
// whatever the build's -m flags allow) and the fallback path is plain
// C++. Accumulation order is ascending in the inner dimension in every
// path, so results are bitwise identical for any thread count.
#include <algorithm>
#include <cmath>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "scalar_math.hpp"

namespace gpufreq::nn::kernels {

namespace {

// Register tile of the C = A*B kernel: kMr C-rows by kNr C-columns (one
// 512-bit lane of floats) held in registers across the whole k loop, so B
// traffic drops by kMr and C is written exactly once.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
static_assert(kNr == kPanelWidth, "packed panels must match the GEMM tile width");

#if defined(__GNUC__) || defined(__clang__)
// Explicit vector lanes: GCC 12's auto-vectorizer keeps the accumulator
// array in memory (16-byte SLP only), which is ~6x slower than the naive
// loop. Named vector variables pin the twelve accumulator halves in
// registers (12 + 2 B lanes fit the 16 ymm registers); __builtin_memcpy
// compiles to unaligned vector moves. 6 rows x 2 lanes = 12 independent
// FMA chains, enough to hide the 4-cycle FMA latency.
typedef float v8sf __attribute__((vector_size(8 * sizeof(float))));

// Loads through an out-parameter: returning a 32-byte vector by value
// changes the calling convention between builds with and without AVX
// (gcc -Wpsabi), and this TU is built for both.
inline void load8(v8sf& v, const float* p) { __builtin_memcpy(&v, p, sizeof(v)); }

// Continue the kMr x kNr tile's accumulation chains held in `acc`
// (row-major kMr x kNr floats, read and then overwritten) over k more
// inner-dimension steps. Callers start from a zeroed acc; a k-blocked
// caller carries acc from block to block, which leaves every element's
// p-ascending multiply-add chain exactly as one call over all of k.
inline void tile_accumulate(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                            std::size_t k, float* acc) {
  v8sf a0l, a0h, a1l, a1h, a2l, a2h, a3l, a3h, a4l, a4h, a5l, a5h;
  load8(a0l, acc + 0);
  load8(a0h, acc + 8);
  load8(a1l, acc + 16);
  load8(a1h, acc + 24);
  load8(a2l, acc + 32);
  load8(a2h, acc + 40);
  load8(a3l, acc + 48);
  load8(a3h, acc + 56);
  load8(a4l, acc + 64);
  load8(a4h, acc + 72);
  load8(a5l, acc + 80);
  load8(a5h, acc + 88);
  for (std::size_t p = 0; p < k; ++p) {
    v8sf bl, bh;
    load8(bl, b + p * ldb);
    load8(bh, b + p * ldb + 8);
    float x;
    x = a[0 * lda + p]; a0l += x * bl; a0h += x * bh;
    x = a[1 * lda + p]; a1l += x * bl; a1h += x * bh;
    x = a[2 * lda + p]; a2l += x * bl; a2h += x * bh;
    x = a[3 * lda + p]; a3l += x * bl; a3h += x * bh;
    x = a[4 * lda + p]; a4l += x * bl; a4h += x * bh;
    x = a[5 * lda + p]; a5l += x * bl; a5h += x * bh;
  }
  const v8sf out[kMr][2] = {{a0l, a0h}, {a1l, a1h}, {a2l, a2h},
                            {a3l, a3h}, {a4l, a4h}, {a5l, a5h}};
  __builtin_memcpy(acc, &out[0][0], sizeof(out));
}
#else
inline void tile_accumulate(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                            std::size_t k, float* acc) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float ar = a[r * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[r * kNr + j] += ar * bp[j];
    }
  }
}
#endif

inline void kernel_mrxnr(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                         float* c, std::size_t ldc, std::size_t k) {
  float acc[kMr * kNr] = {};
  tile_accumulate(a, lda, b, ldb, k, acc);
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r * kNr + j];
  }
}

// Seed-style i-p-j fallback for row/column tails (contiguous B access).
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
      kernel_mrxnr(A + i0 * k, k, B + j0, m, C + i0 * m + j0, m, k);
    }
    tail_rows(A, k, B, m, C, m, k, i0, hi, j0, j0 + kNr);
  }
  const std::size_t j_tail = m - m % kNr;
  if (j_tail < m) tail_rows(A, k, B, m, C, m, k, lo, hi, j_tail, m);
}

void gemm_tn_band_f(const float* A, const float* B, float* C, std::size_t n,
                    std::size_t k, std::size_t m, std::size_t lo, std::size_t hi) {
  // The band owns C rows (= A columns) [lo, hi); p stays the outer loop so
  // B rows stream once per band and accumulation stays p-ascending.
  for (std::size_t i = lo; i < hi; ++i) {
    float* ci = C + i * m;
    for (std::size_t j = 0; j < m; ++j) ci[j] = 0.0f;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const float* ap = A + p * k;
    const float* bp = B + p * m;
    for (std::size_t i = lo; i < hi; ++i) {
      const float api = ap[i];
      float* ci = C + i * m;
      for (std::size_t j = 0; j < m; ++j) ci[j] += api * bp[j];
    }
  }
}

void add_row_vector_f(float* m, const float* v, std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = m + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += v[j];
  }
}

void column_sums_f(const float* m, float* out, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = m + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

void activate_f(Activation act, const float* z, float* out, std::size_t n) {
  using namespace scalar_math;
  switch (act) {
    case Activation::kLinear:
      if (out != z) std::copy(z, z + n, out);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = z[i] > 0.0f ? z[i] : 0.0f;
      return;
    case Activation::kElu:
      for (std::size_t i = 0; i < n; ++i) out[i] = elu_f(z[i]);
      return;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = z[i] > 0.0f ? z[i] : kLeakySlope * z[i];
      return;
    case Activation::kSelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = selu_f(z[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) out[i] = sigmoid_f(z[i]);
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) out[i] = std::tanh(z[i]);
      return;
    case Activation::kSoftplus:
      for (std::size_t i = 0; i < n; ++i) out[i] = softplus_f(z[i]);
      return;
    case Activation::kSoftsign:
      for (std::size_t i = 0; i < n; ++i) out[i] = softsign_f(z[i]);
      return;
  }
}

// The same inlined elementwise kernels as the scalar
// activate_derivative(act, float) overload, so the two agree bitwise.
void activate_derivative_f(Activation act, const float* z, float* out, std::size_t n) {
  using namespace scalar_math;
  switch (act) {
    case Activation::kLinear:
      std::fill(out, out + n, 1.0f);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = z[i] > 0.0f ? 1.0f : 0.0f;
      return;
    case Activation::kElu:
      for (std::size_t i = 0; i < n; ++i) out[i] = z[i] > 0.0f ? 1.0f : fast_expf(z[i]);
      return;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = z[i] > 0.0f ? 1.0f : kLeakySlope;
      return;
    case Activation::kSelu:
      for (std::size_t i = 0; i < n; ++i)
        out[i] = z[i] > 0.0f ? kSeluScale : kSeluScale * kSeluAlpha * fast_expf(z[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        const float s = sigmoid_f(z[i]);
        out[i] = s * (1.0f - s);
      }
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) {
        const float t = std::tanh(z[i]);
        out[i] = 1.0f - t * t;
      }
      return;
    case Activation::kSoftplus:
      for (std::size_t i = 0; i < n; ++i) out[i] = sigmoid_f(z[i]);
      return;
    case Activation::kSoftsign:
      for (std::size_t i = 0; i < n; ++i) {
        const float d = 1.0f + std::abs(z[i]);
        out[i] = 1.0f / (d * d);
      }
      return;
  }
}

// y rows [i, i + rows) of one panel: the finished sums plus the bias,
// added after the sum exactly as add_row_vector_f does.
inline void store_plus_bias(const float* acc, std::size_t rows, const float* bias, float* y,
                            std::size_t ldy, std::size_t jn) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yr = y + r * ldy;
    for (std::size_t j = 0; j < jn; ++j) yr[j] = acc[r * kNr + j] + bias[j];
  }
}

// Inner-dimension block of the row tail's zero-padded stack tile: bounds
// its stack use for any k.
constexpr std::size_t kTailKc = 64;

void dense_bias_act_f(const float* x, const PackedWeights& w, const float* bias,
                      Activation act, float* y, std::size_t lo, std::size_t hi) {
  GPUFREQ_HOT("gpufreq::nn::kernels::(anonymous namespace)::dense_bias_act_f");
  // Element for element the unfused gemm_row_band_f -> add_row_vector_f ->
  // activate_f chain: every sum accumulates from 0 through tile_accumulate,
  // then the bias is added, then the finished band is activated in one
  // contiguous pass. Tail rows run the same tile code on a zero-padded
  // copy, so a row's result never depends on the band it sits in.
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  const std::size_t tail = lo + (hi - lo) / kMr * kMr;
  for (std::size_t p = 0; p < w.panel_count(); ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, n - j0);
    const float* B = w.panel(p);
    float acc[kMr * kNr];
    for (std::size_t i = lo; i < tail; i += kMr) {
      std::fill(acc, acc + kMr * kNr, 0.0f);
      tile_accumulate(x + i * k, k, B, kPanelWidth, k, acc);
      store_plus_bias(acc, kMr, bias + j0, y + i * n + j0, n, jn);
    }
    if (tail < hi) {
      const std::size_t rows = hi - tail;
      float xt[kMr * kTailKc] = {};  // rows past `rows` stay zero
      std::fill(acc, acc + kMr * kNr, 0.0f);
      for (std::size_t q0 = 0; q0 < k; q0 += kTailKc) {
        const std::size_t kc = std::min(kTailKc, k - q0);
        for (std::size_t r = 0; r < rows; ++r) {
          const float* xr = x + (tail + r) * k + q0;
          std::copy(xr, xr + kc, xt + r * kc);
        }
        tile_accumulate(xt, kc, B + q0 * kPanelWidth, kPanelWidth, kc, acc);
      }
      store_plus_bias(acc, rows, bias + j0, y + tail * n + j0, n, jn);
    }
  }
  activate_f(act, y + lo * n, y + lo * n, (hi - lo) * n);
}

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static const KernelTable table = {
      "scalar",      gemm_row_band_f, gemm_tn_band_f,        add_row_vector_f,
      column_sums_f, activate_f,      activate_derivative_f, dense_bias_act_f,
  };
  return table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels
