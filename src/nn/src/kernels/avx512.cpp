// AVX-512 backend: kernel_body.hpp over 16-float zmm lanes with __mmask16
// first-n loads and stores. This is the ONLY translation unit compiled with
// -mavx512f -mavx512bw (see src/nn/CMakeLists.txt), so the rest of the
// binary stays runnable on any x86-64; dispatch.cpp only hands out this
// table after checking CPUID for both feature bits. When the compiler
// can't target AVX-512 the real implementation compiles away and
// avx512_table() returns nullptr. The kernels need only AVX512F.
#include "gpufreq/nn/kernels/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "kernel_body.hpp"

namespace gpufreq::nn::kernels {

namespace {

// The min/max clamps keep the second operand when either is NaN, which is
// the constant-first contract; the _CMP_GT_OQ and _CMP_ORD_Q compares are
// false on NaN. min, max, floor and the exponent bits use the all-lanes
// masked forms: the unmasked intrinsics read _mm512_undefined_*(), which
// GCC 12 reports as uninitialized once inlined deep enough (GCC
// PR105593). With every lane selected they compile to the same
// instructions.
struct Avx512 {
  using vec = __m512;
  static constexpr std::size_t W = 16;
  static constexpr std::size_t kAccumulators = 16;  // of 32 zmm

  static constexpr __mmask16 kAll = 0xFFFF;
  static __mmask16 first(std::size_t n) { return static_cast<__mmask16>((1u << n) - 1u); }

  static vec zero() { return _mm512_setzero_ps(); }
  static vec set1(float s) { return _mm512_set1_ps(s); }
  static vec load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, vec v) { _mm512_storeu_ps(p, v); }
  static vec load_first(const float* p, std::size_t n) {
    return _mm512_maskz_loadu_ps(first(n), p);
  }
  static void store_first(float* p, vec v, std::size_t n) {
    _mm512_mask_storeu_ps(p, first(n), v);
  }
  static vec fmadd(vec a, vec b, vec c) { return _mm512_fmadd_ps(a, b, c); }
  static vec fnmadd(vec a, vec b, vec c) { return _mm512_fnmadd_ps(a, b, c); }
  static vec add(vec a, vec b) { return _mm512_add_ps(a, b); }
  static vec sub(vec a, vec b) { return _mm512_sub_ps(a, b); }
  static vec mul(vec a, vec b) { return _mm512_mul_ps(a, b); }
  static vec div(vec a, vec b) { return _mm512_div_ps(a, b); }
  static vec min(vec c, vec x) { return _mm512_mask_min_ps(c, kAll, c, x); }
  static vec max(vec c, vec x) { return _mm512_mask_max_ps(c, kAll, c, x); }
  static vec if_gt0(vec z, vec a, vec b) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(z, zero(), _CMP_GT_OQ), b, a);
  }
  static vec floor(vec x) {
    return _mm512_mask_roundscale_ps(x, kAll, x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static vec scale_pow2(vec y, vec fx) {
    const vec fx_int = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(fx, fx, _CMP_ORD_Q), fx);
    const __m512i biased =
        _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAll, fx_int), _mm512_set1_epi32(127));
    return _mm512_mul_ps(y, _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAll, biased, 23)));
  }
  static vec abs(vec x) { return _mm512_abs_ps(x); }
};

}  // namespace

namespace detail {

const KernelTable* avx512_table() {
  static constexpr KernelTable table = kernel_table<Avx512>("avx512");
  return &table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels

#else  // no AVX-512F+BW target support in this TU

namespace gpufreq::nn::kernels::detail {

const KernelTable* avx512_table() { return nullptr; }

}  // namespace gpufreq::nn::kernels::detail

#endif
