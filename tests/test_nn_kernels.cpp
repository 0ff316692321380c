// Kernel-backend tests: dispatch selection, weight packing, scalar-vs-AVX2
// parity over awkward shapes, bitwise exactness of the backward kernels,
// fused-vs-unfused agreement, NaN semantics of the fused epilogue, and the
// per-backend serial==parallel bitwise determinism contract (inference and
// training). NaN tests call the kernel tables directly so the
// sanitizer lanes' GPUFREQ_DCHECK_FINITE layer checks stay out of the way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/nn/trainer.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn::kernels {
namespace {

// Restore the default (env-respecting) selection when a test finishes so
// backend-forcing tests cannot leak into the rest of the binary.
struct ScopedBackend {
  explicit ScopedBackend(Backend b) { set_kernel_backend(b); }
  ~ScopedBackend() { set_kernel_backend(Backend::kAuto); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.5));
  return v;
}

// Tolerances sized for reordered float accumulation: a k=64 dot product of
// N(0,1) terms that cancels to ~1e-3 legitimately moves by a few 1e-6
// between accumulation orders (FMA vs separate rounds, tile vs row order),
// while any real indexing bug shows up as an O(1) difference.
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  double rel = 1e-5, double abs = 2e-5) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double tol =
        abs + rel * static_cast<double>(std::max(std::fabs(a[i]), std::fabs(b[i])));
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

// Unfused reference through one table: z = x*w, z += bias, act(z).
std::vector<float> unfused_reference(const KernelTable& kt, const Matrix& x, const Matrix& w,
                                     const std::vector<float>& bias, Activation act) {
  const std::size_t rows = x.rows(), n = w.cols();
  std::vector<float> z(rows * n);
  kt.gemm_row_band(x.flat().data(), w.flat().data(), z.data(), w.rows(), n, 0, rows);
  kt.add_row_vector(z.data(), bias.data(), rows, n);
  kt.activate(act, z.data(), z.data(), rows * n);
  return z;
}

std::vector<float> fused(const KernelTable& kt, const Matrix& x, const Matrix& w,
                         const std::vector<float>& bias, Activation act) {
  PackedWeights packed;
  packed.pack(w);
  std::vector<float> y(x.rows() * w.cols());
  kt.dense_bias_act(x.flat().data(), packed, bias.data(), act, y.data(), 0, x.rows());
  return y;
}

struct Shape {
  std::size_t rows, k, n;
};

// Tile boundaries, single-row/column edges, padding tails, the paper's
// sweep shape (61 x 3 -> 64), square power-of-two, and the 32-wide panel
// -pair edges of the AVX-512 tile: K=1 with n>32, n straddling one panel
// pair plus a masked tail, and n just under the pair width.
const Shape kShapes[] = {{1, 1, 1},  {1, 17, 1}, {5, 3, 16},   {6, 16, 16}, {7, 19, 33},
                         {61, 3, 64}, {64, 64, 64}, {13, 1, 7}, {1, 64, 1},
                         {3, 1, 33},  {9, 7, 49},  {8, 2, 96},  {2, 5, 31}};

const Activation kAllActivations[] = {
    Activation::kLinear, Activation::kRelu,    Activation::kElu,
    Activation::kLeakyRelu, Activation::kSelu, Activation::kSigmoid,
    Activation::kTanh,   Activation::kSoftplus, Activation::kSoftsign};

TEST(KernelDispatch, BackendStringRoundTrip) {
  EXPECT_EQ(backend_from_string("auto"), Backend::kAuto);
  EXPECT_EQ(backend_from_string("scalar"), Backend::kScalar);
  EXPECT_EQ(backend_from_string("avx2"), Backend::kAvx2);
  EXPECT_EQ(backend_from_string("avx512"), Backend::kAvx512);
  EXPECT_STREQ(to_string(Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Backend::kAvx2), "avx2");
  EXPECT_STREQ(to_string(Backend::kAvx512), "avx512");
  EXPECT_THROW(backend_from_string("sse42"), InvalidArgument);
  EXPECT_THROW(backend_from_string(""), InvalidArgument);
  EXPECT_THROW(backend_from_string("AVX2 "), InvalidArgument);
  // The accepted set in the error message is generated from the backend
  // registry — it must name every backend the parser accepts.
  try {
    backend_from_string("sse42");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("auto|scalar|avx2|avx512"), std::string::npos) << msg;
  }
}

// Split "a|b|c" on '|'.
std::vector<std::string> split_accepted(const std::string& joined) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= joined.size()) {
    const std::size_t bar = joined.find('|', start);
    if (bar == std::string::npos) {
      names.push_back(joined.substr(start));
      break;
    }
    names.push_back(joined.substr(start, bar - start));
    start = bar + 1;
  }
  return names;
}

// The GPUFREQ_KERNEL_BACKEND rejection message must embed the registry-
// generated accepted set verbatim, every name it lists must parse, and
// every name the parser accepts must be listed — proven by round-tripping
// the published set instead of hand-copying "auto|scalar|avx2|avx512".
TEST(KernelDispatch, RejectionMessageListsRegistryAcceptedSet) {
  const std::string& accepted = accepted_backends();
  try {
    backend_from_string("not-a-backend");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("not-a-backend"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(expected " + accepted + ")"), std::string::npos) << msg;
  }
  const std::vector<std::string> names = split_accepted(accepted);
  EXPECT_GE(names.size(), 2u) << accepted;
  for (const std::string& name : names) {
    const Backend b = backend_from_string(name);  // must not throw
    // Listed name <-> enumerator is a bijection (no alias rows, no '?').
    EXPECT_EQ(to_string(b), name);
  }
}

TEST(KernelDispatch, ForcedScalarIsHonored) {
  ScopedBackend guard(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(active().name, "scalar");
}

TEST(KernelDispatch, AutoSelectionNeverReturnsAuto) {
  set_kernel_backend(Backend::kAuto);
  const Backend b = active_backend();
  EXPECT_NE(b, Backend::kAuto);
  // Auto respects the env override (the CI scalar lane sets it); without
  // one it picks the best supported backend.
  if (const char* env = std::getenv("GPUFREQ_KERNEL_BACKEND");
      env != nullptr && backend_from_string(env) != Backend::kAuto) {
    EXPECT_EQ(b, backend_from_string(env));
  } else {
    const Backend best = avx512_available() ? Backend::kAvx512
                         : avx2_available() ? Backend::kAvx2
                                            : Backend::kScalar;
    EXPECT_EQ(b, best);
  }
}

TEST(KernelDispatch, Avx2RequestMatchesAvailability) {
  if (avx2_available()) {
    ScopedBackend guard(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_STREQ(active().name, "avx2");
    EXPECT_NE(detail::avx2_table(), nullptr);
  } else {
    EXPECT_THROW(set_kernel_backend(Backend::kAvx2), InvalidArgument);
  }
}

TEST(KernelDispatch, Avx512RequestMatchesAvailability) {
  if (avx512_available()) {
    ScopedBackend guard(Backend::kAvx512);
    EXPECT_EQ(active_backend(), Backend::kAvx512);
    EXPECT_STREQ(active().name, "avx512");
    EXPECT_NE(detail::avx512_table(), nullptr);
  } else {
    // Requesting an unavailable backend must throw, never fall back
    // silently — deployments that pin avx512 should fail loudly.
    EXPECT_THROW(set_kernel_backend(Backend::kAvx512), InvalidArgument);
  }
}

TEST(KernelPacking, PanelLayoutAndZeroPadding) {
  const Matrix w = random_matrix(3, 5, 99);
  PackedWeights packed;
  packed.pack(w);
  EXPECT_FALSE(packed.empty());
  EXPECT_EQ(packed.rows(), 3u);
  EXPECT_EQ(packed.cols(), 5u);
  ASSERT_EQ(packed.panel_count(), 1u);
  const float* p0 = packed.panel(0);
  for (std::size_t q = 0; q < 3; ++q) {
    for (std::size_t j = 0; j < kPanelWidth; ++j) {
      EXPECT_EQ(p0[q * kPanelWidth + j], j < 5 ? w(q, j) : 0.0f);
    }
  }
}

TEST(KernelPacking, MultiPanelAndRepack) {
  const Matrix w = random_matrix(2, 17, 5);
  PackedWeights packed;
  packed.pack(w);
  ASSERT_EQ(packed.panel_count(), 2u);
  EXPECT_EQ(packed.panel(1)[0 * kPanelWidth + 0], w(0, 16));
  EXPECT_EQ(packed.panel(1)[1 * kPanelWidth + 0], w(1, 16));
  for (std::size_t j = 1; j < kPanelWidth; ++j) {
    EXPECT_EQ(packed.panel(1)[0 * kPanelWidth + j], 0.0f);
  }
  // Repacking a different shape reuses the object.
  const Matrix w2 = random_matrix(4, 3, 6);
  packed.pack(w2);
  EXPECT_EQ(packed.rows(), 4u);
  EXPECT_EQ(packed.cols(), 3u);
  EXPECT_EQ(packed.panel_count(), 1u);
  packed.clear();
  EXPECT_TRUE(packed.empty());
}

// Scalar-vs-SIMD parity over every primitive and shape; shared by the
// avx2 and avx512 suites.
void check_simd_parity(const KernelTable& av) {
  const KernelTable& sc = detail::scalar_table();
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
    const Matrix x = random_matrix(s.rows, s.k, 17 + s.rows);
    const Matrix w = random_matrix(s.k, s.n, 29 + s.n);
    const std::vector<float> bias = random_vec(s.n, 31 + s.k);

    std::vector<float> cs(s.rows * s.n), ca(s.rows * s.n);
    sc.gemm_row_band(x.flat().data(), w.flat().data(), cs.data(), s.k, s.n, 0, s.rows);
    av.gemm_row_band(x.flat().data(), w.flat().data(), ca.data(), s.k, s.n, 0, s.rows);
    expect_close(cs, ca);

    // A^T * B with A: rows x k -> C: k x n needs B with `rows` rows.
    const Matrix b2 = random_matrix(s.rows, s.n, 41);
    std::vector<float> ts(s.k * s.n), ta(s.k * s.n);
    sc.gemm_tn_band(x.flat().data(), b2.flat().data(), ts.data(), s.rows, s.k, s.n, 0, s.k);
    av.gemm_tn_band(x.flat().data(), b2.flat().data(), ta.data(), s.rows, s.k, s.n, 0, s.k);
    expect_close(ts, ta);

    std::vector<float> ms = cs, ma = cs;
    sc.add_row_vector(ms.data(), bias.data(), s.rows, s.n);
    av.add_row_vector(ma.data(), bias.data(), s.rows, s.n);
    expect_close(ms, ma, 0.0, 0.0);  // additions only: exact

    std::vector<float> sums_s(s.n), sums_a(s.n);
    sc.column_sums(cs.data(), sums_s.data(), s.rows, s.n);
    av.column_sums(cs.data(), sums_a.data(), s.rows, s.n);
    expect_close(sums_s, sums_a);

    for (Activation act : kAllActivations) {
      std::vector<float> as(ms.size()), aa(ms.size());
      sc.activate(act, ms.data(), as.data(), ms.size());
      av.activate(act, ms.data(), aa.data(), ms.size());
      expect_close(as, aa);
      sc.activate_derivative(act, ms.data(), as.data(), ms.size());
      av.activate_derivative(act, ms.data(), aa.data(), ms.size());
      expect_close(as, aa);
      expect_close(fused(sc, x, w, bias, act), fused(av, x, w, bias, act));
    }
  }
}

TEST(KernelParity, ScalarVsAvx2AllPrimitives) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  check_simd_parity(*detail::avx2_table());
}

TEST(KernelParity, ScalarVsAvx512AllPrimitives) {
  if (!avx512_available()) GTEST_SKIP() << "no AVX-512F+BW on this machine";
  check_simd_parity(*detail::avx512_table());
}

std::vector<const KernelTable*> all_available_tables() {
  std::vector<const KernelTable*> tables = {&detail::scalar_table()};
  if (avx2_available()) tables.push_back(detail::avx2_table());
  if (avx512_available()) tables.push_back(detail::avx512_table());
  return tables;
}

std::uint32_t float_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(float_bits(a[i]), float_bits(b[i]))
        << "at index " << i << ": " << a[i] << " vs " << b[i];
  }
}

float bits_float(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// The SIMD gemm_tn_band as it was before register tiling: C rows [lo, hi)
// zeroed, then p-outer accumulation in memory, every vector lane one fused
// multiply-add. Columns past the last full 8-float lane (`scalar_from`,
// avx2 only) ran the scalar expression `c += a * b`, which the -mfma TU
// contracts into the same fused op — `fused_tail` false gives the
// separately rounded form a non-contracting compiler would produce.
void tn_memory_reference(const float* A, const float* B, float* C, std::size_t n,
                         std::size_t k, std::size_t m, std::size_t lo, std::size_t hi,
                         std::size_t scalar_from, bool fused_tail) {
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t j = 0; j < m; ++j) C[i * m + j] = 0.0f;
  }
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float a = A[p * k + i];
      for (std::size_t j = 0; j < m; ++j) {
        float& c = C[i * m + j];
        if (j < scalar_from || fused_tail) {
          c = std::fma(a, B[p * m + j], c);
        } else {
          volatile float prod = a * B[p * m + j];  // no contraction
          c = c + prod;
        }
      }
    }
  }
}

// The register-tiled SIMD gemm_tn_band must reproduce the memory-
// accumulating form bit for bit: m % 16 column tails, band heights that
// are not a multiple of the row tile, bands starting at lo != 0, and C
// rows outside the band left untouched.
TEST(KernelExactness, TiledGemmTnMatchesMemoryAccumulatingForm) {
  std::vector<std::pair<const KernelTable*, bool>> tables;  // (table, has scalar tail)
  if (avx2_available()) tables.emplace_back(detail::avx2_table(), true);
  if (avx512_available()) tables.emplace_back(detail::avx512_table(), false);
  if (tables.empty()) GTEST_SKIP() << "no SIMD backend on this machine";
  struct TnCase {
    std::size_t n, k, m, lo, hi;
  };
  const TnCase cases[] = {{64, 64, 64, 0, 64}, {64, 3, 64, 0, 3},   {64, 64, 1, 0, 64},
                          {7, 13, 17, 0, 13},  {33, 19, 31, 5, 19}, {1, 9, 9, 1, 8},
                          {65, 21, 40, 3, 21}, {5, 16, 15, 0, 16},  {12, 11, 33, 2, 9},
                          {64, 64, 24, 16, 48}, {3, 70, 70, 13, 70}, {2, 8, 7, 0, 8}};
  constexpr float kSentinel = 12345.0f;
  for (const auto& [kt, scalar_tail] : tables) {
    SCOPED_TRACE(kt->name);
    for (const TnCase& c : cases) {
      SCOPED_TRACE(::testing::Message() << "n=" << c.n << " k=" << c.k << " m=" << c.m
                                        << " band=[" << c.lo << "," << c.hi << ")");
      const Matrix a = random_matrix(c.n, c.k, 101 + c.k);
      const Matrix b = random_matrix(c.n, c.m, 103 + c.m);
      const std::size_t scalar_from = scalar_tail ? c.m - c.m % 8 : c.m;
      std::vector<float> got(c.k * c.m, kSentinel), fused(c.k * c.m), split(c.k * c.m);
      kt->gemm_tn_band(a.flat().data(), b.flat().data(), got.data(), c.n, c.k, c.m, c.lo, c.hi);
      tn_memory_reference(a.flat().data(), b.flat().data(), fused.data(), c.n, c.k, c.m, c.lo,
                          c.hi, scalar_from, true);
      tn_memory_reference(a.flat().data(), b.flat().data(), split.data(), c.n, c.k, c.m, c.lo,
                          c.hi, scalar_from, false);
      for (std::size_t i = 0; i < c.k; ++i) {
        for (std::size_t j = 0; j < c.m; ++j) {
          const float g = got[i * c.m + j];
          if (i < c.lo || i >= c.hi) {
            ASSERT_EQ(float_bits(g), float_bits(kSentinel)) << "wrote outside the band at " << i;
            continue;
          }
          const bool ok = float_bits(g) == float_bits(fused[i * c.m + j]) ||
                          (j >= scalar_from && float_bits(g) == float_bits(split[i * c.m + j]));
          ASSERT_TRUE(ok) << "C(" << i << "," << j << ") = " << g << ", reference "
                          << fused[i * c.m + j];
        }
      }
    }
  }
}

// Inputs for the derivative exactness check: a dense stride through all
// 2^32 bit patterns plus the edges of every branch — signed zeros,
// denormals, infinities, NaN, exp's clamp points, and values around 0.
std::vector<float> derivative_probe_inputs() {
  std::vector<float> z;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 65521) {
    z.push_back(bits_float(static_cast<std::uint32_t>(b)));
  }
  const float edges[] = {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                         -std::numeric_limits<float>::denorm_min(),
                         bits_float(0x007fffffu), bits_float(0x807fffffu),
                         std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
                         std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN(), -87.0f, -87.5f, -88.0f,
                         88.0f, 88.5f, 87.0f, -86.99f, 1e-30f, -1e-30f, 1e-7f, -1e-7f};
  z.insert(z.end(), std::begin(edges), std::end(edges));
  for (int i = -64; i <= 64; ++i) z.push_back(static_cast<float>(i) / 32.0f);
  z.push_back(0.5f);  // odd length: every backend's vector tail runs
  return z;
}

// Each backend's activate_derivative entry against the scalar overload.
// The scalar backend shares the overload's inlined expressions, so it is
// always bitwise. The SIMD backends port the expressions with explicit
// FMAs: bitwise when the scalar code was built with FMA contraction (the
// scalar TU and this test share the build's arch flags), within the
// forward-activation tolerance otherwise. NaN must stay NaN.
TEST(KernelExactness, DerivativeMatchesScalarOverload) {
  const std::vector<float> z = derivative_probe_inputs();
  std::vector<float> out(z.size());
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
#if defined(__FMA__)
    const bool bitwise = true;
#else
    const bool bitwise = kt == &detail::scalar_table();
#endif
    for (Activation act : kAllActivations) {
      SCOPED_TRACE(to_string(act));
      kt->activate_derivative(act, z.data(), out.data(), z.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        const float want = activate_derivative(act, z[i]);
        if (std::isnan(want)) {
          ASSERT_TRUE(std::isnan(out[i])) << "x=" << z[i];
        } else if (bitwise) {
          ASSERT_EQ(float_bits(out[i]), float_bits(want)) << "x=" << z[i];
        } else if (out[i] != want) {
          const double tol = 2e-5 + 1e-5 * std::fabs(static_cast<double>(want));
          ASSERT_NEAR(out[i], want, tol) << "x=" << z[i];
        }
      }
    }
  }
}

TEST(KernelParity, FusedMatchesUnfusedPerBackend) {
  const std::vector<const KernelTable*> tables = all_available_tables();
  for (const KernelTable* kt : tables) {
    SCOPED_TRACE(kt->name);
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(::testing::Message() << "rows=" << s.rows << " k=" << s.k << " n=" << s.n);
      const Matrix x = random_matrix(s.rows, s.k, 3 + s.rows);
      const Matrix w = random_matrix(s.k, s.n, 7 + s.n);
      const std::vector<float> bias = random_vec(s.n, 11 + s.k);
      for (Activation act : kAllActivations) {
        SCOPED_TRACE(static_cast<int>(act));
        expect_bitwise(unfused_reference(*kt, x, w, bias, act), fused(*kt, x, w, bias, act));
      }
    }
  }
}

// Row locality of the fused kernel: every row of a band equals the same
// row computed as a one-row band, bitwise, so a request's result never
// depends on the batch it was stacked into. The row counts straddle the
// register tiles (6 scalar/avx2 rows, 8 avx512 rows) with tails; k = 100
// spans two of the scalar row tail's 64-wide inner-dimension blocks.
TEST(KernelParity, FusedRowsMatchRowsComputedAlonePerBackend) {
  for (const KernelTable* kt : all_available_tables()) {
    SCOPED_TRACE(kt->name);
    for (std::size_t k : {3, 12, 64, 100}) {
      for (std::size_t n : {1, 64}) {
        const Matrix w = random_matrix(k, n, 5 + k * n);
        const std::vector<float> bias = random_vec(n, 19 + n);
        PackedWeights packed;
        packed.pack(w);
        for (std::size_t rows : {7, 13, 61}) {
          SCOPED_TRACE(::testing::Message() << "k=" << k << " n=" << n << " rows=" << rows);
          const Matrix x = random_matrix(rows, k, 23 + rows + k);
          for (Activation act : {Activation::kSelu, Activation::kLinear}) {
            std::vector<float> band(rows * n), alone(rows * n);
            kt->dense_bias_act(x.flat().data(), packed, bias.data(), act, band.data(), 0,
                               rows);
            for (std::size_t i = 0; i < rows; ++i) {
              kt->dense_bias_act(x.flat().data(), packed, bias.data(), act, alone.data(), i,
                                 i + 1);
            }
            expect_bitwise(band, alone);
          }
        }
      }
    }
  }
}

TEST(KernelNan, FusedEpiloguePropagatesNan) {
  const std::vector<const KernelTable*> tables = all_available_tables();
  for (const KernelTable* kt : tables) {
    SCOPED_TRACE(kt->name);
    Matrix x = random_matrix(4, 8, 13);
    x(1, 3) = std::numeric_limits<float>::quiet_NaN();
    const Matrix w = random_matrix(8, 20, 15);
    const std::vector<float> bias = random_vec(20, 17);
    // SELU (and every exp-based activation) must propagate NaN through the
    // fused epilogue: a poisoned input row means a poisoned output row.
    const std::vector<float> y = fused(*kt, x, w, bias, Activation::kSelu);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_TRUE(std::isnan(y[1 * 20 + j])) << "col " << j;
    }
    // Clean rows stay clean.
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_FALSE(std::isnan(y[0 * 20 + j])) << "col " << j;
      EXPECT_FALSE(std::isnan(y[3 * 20 + j])) << "col " << j;
    }
    // ReLU deliberately maps NaN to 0 (NaN > 0 is false) — both backends
    // must agree on that semantic, not just on finite inputs.
    const std::vector<float> yr = fused(*kt, x, w, bias, Activation::kRelu);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_TRUE(yr[1 * 20 + j] == 0.0f || yr[1 * 20 + j] > 0.0f) << "col " << j;
      EXPECT_FALSE(std::isnan(yr[1 * 20 + j])) << "col " << j;
    }
  }
}

TEST(KernelDeterminism, SerialEqualsParallelBitwisePerBackend) {
  std::vector<Backend> backends = {Backend::kScalar};
  if (avx2_available()) backends.push_back(Backend::kAvx2);
  if (avx512_available()) backends.push_back(Backend::kAvx512);
  Network net(3, Network::paper_architecture(), /*seed=*/321);
  net.prepare_inference();
  Rng rng(9);
  Matrix x(61, 3);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (Backend b : backends) {
    SCOPED_TRACE(to_string(b));
    ScopedBackend guard(b);
    set_num_threads(1);
    const Matrix y1 = net.predict(x);
    set_num_threads(4);
    const Matrix y4 = net.predict(x);
    set_num_threads(0);
    ASSERT_EQ(y1.rows(), y4.rows());
    for (std::size_t i = 0; i < y1.rows(); ++i) {
      // Bitwise: the determinism contract, not a tolerance check.
      EXPECT_EQ(y1(i, 0), y4(i, 0)) << "row " << i;
    }
  }
}

// Training is bitwise independent of the thread count on every backend:
// the paper's 64-row minibatches (one GEMM chunk each, run inline) and
// 1024-row batches whose hidden-layer forward and gradient products span
// several chunks on the pool.
TEST(KernelDeterminism, TrainingIsThreadCountIndependentPerBackend) {
  std::vector<Backend> backends = {Backend::kScalar};
  if (avx2_available()) backends.push_back(Backend::kAvx2);
  if (avx512_available()) backends.push_back(Backend::kAvx512);
  ASSERT_GE(gemm_chunk_rows(64, 64, kGemmRowTile), 64u);  // minibatch: one chunk
  ASSERT_LT(gemm_chunk_rows(64, 64, kGemmRowTile), 1024u);  // 1024 rows: several
  ASSERT_LT(gemm_chunk_rows(1024, 64, kGemmTnTile), 64u);
  const Matrix x = random_matrix(2600, 3, 211);
  Matrix y(2600, 1);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    y(i, 0) = std::sin(x(i, 0)) + 0.5f * x(i, 1) * x(i, 2);
  }
  const auto train = [&](std::size_t threads, std::size_t batch) {
    set_num_threads(threads);
    Network net(3, Network::paper_architecture(), /*seed=*/17);
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = batch;
    Trainer(cfg).fit(net, x, y);
    set_num_threads(0);
    return net;
  };
  for (Backend b : backends) {
    SCOPED_TRACE(to_string(b));
    ScopedBackend guard(b);
    for (std::size_t batch : {std::size_t{64}, std::size_t{1024}}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      const Network one = train(1, batch);
      const Network four = train(4, batch);
      ASSERT_EQ(one.num_layers(), four.num_layers());
      for (std::size_t l = 0; l < one.num_layers(); ++l) {
        const auto w1 = one.layer(l).weights().flat();
        const auto w4 = four.layer(l).weights().flat();
        ASSERT_EQ(w1.size(), w4.size());
        for (std::size_t i = 0; i < w1.size(); ++i) {
          ASSERT_EQ(float_bits(w1[i]), float_bits(w4[i])) << "layer " << l << " weight " << i;
        }
        const std::vector<float>& b1 = one.layer(l).bias();
        const std::vector<float>& b4 = four.layer(l).bias();
        for (std::size_t i = 0; i < b1.size(); ++i) {
          ASSERT_EQ(float_bits(b1[i]), float_bits(b4[i])) << "layer " << l << " bias " << i;
        }
      }
    }
  }
}

TEST(KernelDeterminism, EmptyBatchIsRejected) {
  Network net(3, Network::paper_architecture(), /*seed=*/5);
  EXPECT_THROW(net.predict(Matrix()), InvalidArgument);
  InferenceWorkspace ws;
  EXPECT_THROW(net.predict_into(Matrix(), ws), InvalidArgument);
}

}  // namespace
}  // namespace gpufreq::nn::kernels
