// AVX2+FMA backend: kernel_body.hpp over 8-float ymm lanes, first-n
// through _mm256_maskload_ps/_mm256_maskstore_ps. This is the ONLY
// translation unit compiled with -mavx2 -mfma (see src/nn/CMakeLists.txt),
// so the rest of the binary stays runnable on any x86-64; dispatch.cpp
// only hands out this table after checking CPUID. When the compiler can't
// target AVX2 the real implementation compiles away and avx2_table()
// returns nullptr.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "kernel_body.hpp"

namespace gpufreq::nn::kernels {

namespace {

// _mm256_min_ps/_mm256_max_ps return their second operand when either is
// NaN, which is the constant-first min/max contract; the _CMP_GT_OQ and
// _CMP_ORD_Q compares are false on NaN.
struct Avx2 {
  using vec = __m256;
  static constexpr std::size_t W = 8;
  static constexpr std::size_t kAccumulators = 12;  // + 2 B lanes + 1 broadcast of 16 ymm

  static __m256i first(std::size_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  static vec zero() { return _mm256_setzero_ps(); }
  static vec set1(float s) { return _mm256_set1_ps(s); }
  static vec load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, vec v) { _mm256_storeu_ps(p, v); }
  static vec load_first(const float* p, std::size_t n) { return _mm256_maskload_ps(p, first(n)); }
  static void store_first(float* p, vec v, std::size_t n) { _mm256_maskstore_ps(p, first(n), v); }
  static vec fmadd(vec a, vec b, vec c) { return _mm256_fmadd_ps(a, b, c); }
  static vec fnmadd(vec a, vec b, vec c) { return _mm256_fnmadd_ps(a, b, c); }
  static vec add(vec a, vec b) { return _mm256_add_ps(a, b); }
  static vec sub(vec a, vec b) { return _mm256_sub_ps(a, b); }
  static vec mul(vec a, vec b) { return _mm256_mul_ps(a, b); }
  static vec div(vec a, vec b) { return _mm256_div_ps(a, b); }
  static vec min(vec c, vec x) { return _mm256_min_ps(c, x); }
  static vec max(vec c, vec x) { return _mm256_max_ps(c, x); }
  static vec if_gt0(vec z, vec a, vec b) {
    return _mm256_blendv_ps(b, a, _mm256_cmp_ps(z, zero(), _CMP_GT_OQ));
  }
  static vec floor(vec x) { return _mm256_floor_ps(x); }
  static vec scale_pow2(vec y, vec fx) {
    const vec fx_int = _mm256_and_ps(fx, _mm256_cmp_ps(fx, fx, _CMP_ORD_Q));
    const __m256i biased = _mm256_add_epi32(_mm256_cvtps_epi32(fx_int), _mm256_set1_epi32(127));
    return _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23)));
  }
  static vec abs(vec x) {
    return _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  }
};

}  // namespace

namespace detail {

const KernelTable* avx2_table() {
  static constexpr KernelTable table = kernel_table<Avx2>("avx2");
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX2+FMA target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
