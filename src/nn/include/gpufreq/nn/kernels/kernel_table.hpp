#pragma once

#include <cstddef>

#include "gpufreq/nn/activations.hpp"
#include "gpufreq/nn/kernels/packing.hpp"

namespace gpufreq::nn::kernels {

/// The vectorizable primitives of the nn stack, as raw-pointer kernels so
/// one table can be swapped at runtime (see dispatch.hpp). All pointers
/// are row-major with the natural leading dimension; bands ([lo, hi) row
/// ranges) are the unit the thread pool parallelizes over, and every
/// kernel keeps a fixed ascending accumulation order over the inner
/// dimension so band partitioning never changes results.
struct KernelTable {
  const char* name;

  /// C rows [lo, hi) of C = A * B, A: n x k, B: k x m, C overwritten.
  void (*gemm_row_band)(const float* a, const float* b, float* c, std::size_t k,
                        std::size_t m, std::size_t lo, std::size_t hi);

  /// C rows [lo, hi) (= A columns) of C = A^T * B, A: n x k, B: n x m.
  /// Every C element is one multiply-add chain from 0, p ascending.
  void (*gemm_tn_band)(const float* a, const float* b, float* c, std::size_t n,
                       std::size_t k, std::size_t m, std::size_t lo, std::size_t hi);

  /// m[i][j] += v[j] for all rows.
  void (*add_row_vector)(float* m, const float* v, std::size_t rows, std::size_t cols);

  /// out[j] = sum_i m[i][j] (out overwritten).
  void (*column_sums)(const float* m, float* out, std::size_t rows, std::size_t cols);

  /// out[i] = act(z[i]); in-place (out == z) is allowed.
  void (*activate)(Activation act, const float* z, float* out, std::size_t n);

  /// out[i] = act'(z[i]), the derivative at the pre-activation z[i] (the
  /// backward pass); in-place is allowed. Every backend evaluates the
  /// scalar overload's expressions a vector at a time, so it matches that
  /// overload bitwise wherever both round their multiply-adds alike.
  void (*activate_derivative)(Activation act, const float* z, float* out, std::size_t n);

  /// Fused inference layer, rows [lo, hi):
  ///   Y[i] = act(X[i] * W + bias)
  /// over panel-packed weights — the bias add rides the GEMM epilogue and
  /// the activation is applied before the band is handed back, so no
  /// separate Z matrix ever exists. Every backend computes each element
  /// exactly as its own unfused gemm_row_band -> add_row_vector ->
  /// activate chain (sum from 0, then bias, then activation), and each
  /// row independently of the band around it. X: batch x w.rows(),
  /// Y: batch x w.cols(), bias: w.cols().
  void (*dense_bias_act)(const float* x, const PackedWeights& w, const float* bias,
                         Activation act, float* y, std::size_t lo, std::size_t hi);
};

/// Table of the active backend; first use runs dispatch selection.
const KernelTable& active();

namespace detail {
/// The portable reference table (always present).
const KernelTable& scalar_table();
/// The AVX2+FMA table, or nullptr when not compiled into this binary.
const KernelTable* avx2_table();
/// The AVX-512F+BW table, or nullptr when not compiled into this binary.
const KernelTable* avx512_table();
}  // namespace detail

}  // namespace gpufreq::nn::kernels
