// Portable reference backend: kernel_body.hpp over 8-float GCC/Clang
// vector-extension lanes. No intrinsics: the vectors lower to whatever the
// build's -m flags allow, and multiply-adds are written a * b + c, which
// an FMA build contracts to the same fused operation the SIMD backends
// use explicitly (without FMA they round twice; see dispatch.hpp).
#include <cstdint>
#include <cstring>

#include "kernel_body.hpp"

namespace gpufreq::nn::kernels {

namespace {

// 16-byte aligned: a 32-byte aligned vector passed by value changes the
// calling convention between builds with and without AVX (gcc -Wpsabi),
// and this TU is built for both.
typedef float v8sf __attribute__((vector_size(8 * sizeof(float)), aligned(16)));
typedef std::int32_t v8si __attribute__((vector_size(8 * sizeof(std::int32_t)), aligned(16)));

struct Baseline {
  struct vec {
    v8sf v;
  };
  static constexpr std::size_t W = 8;
  static constexpr std::size_t kAccumulators = 12;  // sized for 16 ymm registers, like avx2

  static vec zero() { return {v8sf{}}; }
  static vec set1(float s) { return {v8sf{s, s, s, s, s, s, s, s}}; }
  static vec load(const float* p) {
    vec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  static void store(float* p, vec v) { std::memcpy(p, &v.v, sizeof(v.v)); }
  static vec load_first(const float* p, std::size_t n) {
    float lanes[W] = {};
    std::memcpy(lanes, p, n * sizeof(float));
    return load(lanes);
  }
  static void store_first(float* p, vec v, std::size_t n) {
    float lanes[W];
    store(lanes, v);
    std::memcpy(p, lanes, n * sizeof(float));
  }
  static vec fmadd(vec a, vec b, vec c) { return {a.v * b.v + c.v}; }
  static vec fnmadd(vec a, vec b, vec c) { return {c.v - a.v * b.v}; }
  static vec add(vec a, vec b) { return {a.v + b.v}; }
  static vec sub(vec a, vec b) { return {a.v - b.v}; }
  static vec mul(vec a, vec b) { return {a.v * b.v}; }
  static vec div(vec a, vec b) { return {a.v / b.v}; }
  static vec min(vec c, vec x) { return {c.v < x.v ? c.v : x.v}; }
  static vec max(vec c, vec x) { return {c.v > x.v ? c.v : x.v}; }
  static vec if_gt0(vec z, vec a, vec b) { return {z.v > v8sf{} ? a.v : b.v}; }
  // Truncate through int32, then step down where that rounded up. NaN
  // lanes truncate from 0.
  static vec floor(vec x) {
    const v8sf s = x.v == x.v ? x.v : v8sf{};
    const v8sf t = __builtin_convertvector(__builtin_convertvector(s, v8si), v8sf);
    return {t > s ? t - 1.0f : t};
  }
  static vec scale_pow2(vec y, vec fx) {
    const v8sf f = fx.v == fx.v ? fx.v : v8sf{};
    const v8si bits = (__builtin_convertvector(f, v8si) + 127) << 23;
    v8sf pow2;
    std::memcpy(&pow2, &bits, sizeof(pow2));
    return {y.v * pow2};
  }
  static vec abs(vec x) {
    v8si bits;
    std::memcpy(&bits, &x.v, sizeof(bits));
    bits &= 0x7fffffff;
    vec r;
    std::memcpy(&r.v, &bits, sizeof(r.v));
    return r;
  }
};

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static constexpr KernelTable table = kernel_table<Baseline>("scalar");
  return table;
}

}  // namespace detail

}  // namespace gpufreq::nn::kernels
