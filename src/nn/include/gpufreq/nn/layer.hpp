#pragma once

#include <vector>

#include "gpufreq/nn/activations.hpp"
#include "gpufreq/nn/kernels/packing.hpp"
#include "gpufreq/nn/matrix.hpp"
#include "gpufreq/nn/optimizer.hpp"
#include "gpufreq/util/rng.hpp"

namespace gpufreq::nn {

/// Fully connected layer: Y = act(X * W + b), with the backward pass and
/// gradient buffers needed for mini-batch training.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act);

  std::size_t in_dim() const { return w_.rows(); }
  std::size_t out_dim() const { return w_.cols(); }
  Activation activation() const { return act_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }

  /// LeCun-normal init (recommended for SELU).
  void init_lecun_normal(Rng& rng);

  /// Register W and b with the optimizer (once, before training).
  void register_params(Optimizer& opt);

  /// Forward: caches Z and a reference to X for the backward pass; writes
  /// activations to `out`. `x` must stay alive (and unmodified) until
  /// backward() — Network::train_step guarantees this for its batch.
  void forward(const Matrix& x, Matrix& out);

  /// Inference-only forward (no caching). When the layer is prepared
  /// (prepare_inference), this runs the fused dense_bias_act kernel over
  /// the packed weights — bias add and activation happen in the GEMM
  /// epilogue and `out` is the only matrix written. Otherwise it falls
  /// back to gemm + bias + in-place activation using `out` as the only
  /// scratch.
  void forward_inference(const Matrix& x, Matrix& out) const;

  /// Pack the weights for the fused inference kernel. Call after the
  /// weights settle (end of training / deserialization / any external
  /// mutation through weights()); gradient updates and re-initialization
  /// invalidate the pack automatically.
  void prepare_inference();

  /// True when the packed weights are current.
  bool inference_prepared() const { return !packed_.empty(); }

  /// Backward: `delta` is dL/dY (batch x out). Computes parameter
  /// gradients (averaged over the batch) and overwrites `dx` with dL/dX.
  void backward(const Matrix& delta, Matrix& dx);

  /// Apply the optimizer to W and b using the last computed gradients.
  void apply_gradients(Optimizer& opt);

 private:
  Matrix w_;               // in x out
  std::vector<float> b_;   // out
  Activation act_;
  kernels::PackedWeights packed_;  // panel-packed w_, empty when stale

  Matrix grad_w_;
  std::vector<float> grad_b_;
  const Matrix* cached_x_ = nullptr;  // borrowed forward input (batch x in)
  Matrix cached_z_;        // batch x out (pre-activation)
  Matrix delta_z_;         // scratch: dL/dZ
  std::size_t slot_w_ = static_cast<std::size_t>(-1);
  std::size_t slot_b_ = static_cast<std::size_t>(-1);
};

}  // namespace gpufreq::nn
