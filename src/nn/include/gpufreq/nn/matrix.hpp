#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gpufreq::nn {

/// Dense row-major float matrix used by the neural-network stack. Kept
/// dependency-free: the GEMM kernels below are register-tiled and split
/// into row chunks only when a chunk carries enough work to pay for the
/// thread pool (see DESIGN.md "Performance"), which is enough for the
/// 3x64x64x64x1 MLPs this library trains and for the bench GEMMs.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  /// Elements the matrix holds without reallocating (its high-water mark).
  std::size_t capacity() const { return data_.capacity(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  void fill(float value);
  void resize(std::size_t rows, std::size_t cols);

  /// Pre-grow capacity for a later resize/resize_uninit of up to
  /// rows x cols without changing the current shape. Lets batch servers
  /// warm a workspace to its high-water mark before entering an
  /// allocation-free steady state.
  void reserve(std::size_t rows, std::size_t cols);

  /// Resize without initializing the payload (contents unspecified).
  /// Reuses capacity, so repeated reshaping in a hot loop never allocates
  /// once the high-water mark is reached. Callers must overwrite every
  /// element before reading.
  void resize_uninit(std::size_t rows, std::size_t cols);

  /// Frobenius-norm helpers used by gradient tests.
  float frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Per-chunk work floor of the GEMMs below, in FLOPs. A parallel chunk
/// must carry several thread-pool round trips of work (~15 us each on a
/// 4-vCPU host, DESIGN.md §7): 2^22 FLOPs is ~80 us of single-core GEMM
/// at ~54 GFLOP/s, so a 64-row training minibatch product (<= 0.5 MFLOP)
/// is one chunk and runs inline, while a 512^3 product still fans out.
inline constexpr std::size_t kGemmChunkFlops = std::size_t{1} << 22;

/// Output rows per parallel chunk of a product whose every output row
/// costs 2 * inner * cols FLOPs: the fewest rows reaching kGemmChunkFlops,
/// rounded up to `tile` (48 for gemm/gemm_nt, a multiple of both register
/// tile heights; 16 for gemm_tn). A function of the shape only, never of
/// the thread count, so the partition keeps results bitwise identical for
/// any set_num_threads value.
constexpr std::size_t gemm_chunk_rows(std::size_t inner, std::size_t cols,
                                      std::size_t tile) {
  const std::size_t row_flops = 2 * (inner > 0 ? inner : 1) * (cols > 0 ? cols : 1);
  const std::size_t rows = (kGemmChunkFlops + row_flops - 1) / row_flops;
  return (rows + tile - 1) / tile * tile;
}
inline constexpr std::size_t kGemmRowTile = 48;
inline constexpr std::size_t kGemmTnTile = 16;

/// C = A * B. Dimensions are checked (InvalidArgument). Blocked /
/// register-tiled; rows are split across the global thread pool in
/// gemm_chunk_rows(k, m, kGemmRowTile) chunks. Per-element accumulation
/// order is fixed (ascending inner dimension), so results are bitwise
/// identical for any set_num_threads value.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B. Same determinism guarantee as gemm.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T. Same determinism guarantee as gemm.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c);

/// Adds a row vector (bias) to every row of `m`.
void add_row_vector(Matrix& m, std::span<const float> v);

/// Column-wise sum of `m` into `out` (size cols).
void column_sums(const Matrix& m, std::span<float> out);

}  // namespace gpufreq::nn
