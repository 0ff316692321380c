#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpufreq/nn/layer.hpp"
#include "gpufreq/nn/loss.hpp"

namespace gpufreq::nn {

/// One layer of a feedforward-network architecture description.
struct LayerSpec {
  std::size_t units = 64;
  Activation activation = Activation::kSelu;
};

/// Reusable scratch for Network::predict_into: two ping-pong activation
/// buffers that grow to the widest layer on first use and are then reused
/// verbatim, so steady-state inference performs no heap allocation. One
/// workspace serves any number of networks
/// (buffers are resized per call, capacity only grows); share one per
/// thread, not across threads.
class InferenceWorkspace {
 public:
  InferenceWorkspace() = default;

 private:
  friend class Network;
  Matrix bufs_[2];
};

/// Standard feedforward neural network (the paper's FNN, §4.3): a stack of
/// dense layers. The paper's architecture — three hidden layers of 64 SELU
/// units plus a linear output — is available via `paper_architecture()`.
class Network {
 public:
  /// Build a network; weights are LeCun-normal initialized from `seed`.
  Network(std::size_t input_dim, const std::vector<LayerSpec>& layers, std::uint64_t seed);

  /// Uninitialized network (deserialization only).
  Network() = default;

  std::size_t input_dim() const;
  std::size_t output_dim() const;
  std::size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const { return layers_[i]; }
  DenseLayer& layer(std::size_t i) { return layers_[i]; }

  /// Total trainable parameter count.
  std::size_t parameter_count() const;

  /// Inference: Y = f(X), no training caches touched. Thread-compatible
  /// (const) but not re-entrant with train_step on the same object.
  /// Convenience wrapper over predict_into (per-thread workspace); the
  /// returned matrix is the only allocation it makes in steady state.
  /// Rejects empty batches (x.rows() == 0).
  Matrix predict(const Matrix& x) const;

  /// Inference into a caller-owned workspace; the returned reference
  /// points at one of the workspace buffers and stays valid until the
  /// workspace is reused. Allocation-free once the workspace has warmed
  /// up to this network's widest layer.
  const Matrix& predict_into(const Matrix& x, InferenceWorkspace& ws) const;

  /// Convenience for single-output networks: predict a column vector.
  std::vector<double> predict_vector(const Matrix& x) const;

  /// Single-output inference into a caller-owned span (out.size() must
  /// equal x.rows()); allocation-free like predict_into.
  void predict_vector_into(const Matrix& x, InferenceWorkspace& ws,
                           std::span<double> out) const;

  /// Pre-grow `ws` for batches of up to `max_rows` rows through this
  /// network, so a later predict_into at or below that batch size performs
  /// no allocation even on its first call. Capacity only grows.
  void reserve_workspace(InferenceWorkspace& ws, std::size_t max_rows) const;

  /// Pack every layer's weights for the fused inference kernel.
  /// Idempotent; training steps and weight re-initialization invalidate
  /// the packs (the layers then fall back to the unfused path until
  /// re-prepared).
  void prepare_inference();

  /// True when every layer's fused-inference pack is current.
  bool inference_prepared() const;

  /// One optimizer step on a mini-batch; returns the batch loss before the
  /// update. `opt` must have been bound with bind_optimizer first.
  double train_step(const Matrix& x, const Matrix& y, Loss loss, Optimizer& opt);

  /// Register all layer parameters with the optimizer. Must be called once
  /// per (network, optimizer) pair before train_step.
  void bind_optimizer(Optimizer& opt);

  /// Mean loss on a dataset (no update).
  double evaluate(const Matrix& x, const Matrix& y, Loss loss) const;

  /// The paper's model: 3 hidden layers x 64 SELU neurons -> 1 linear.
  static std::vector<LayerSpec> paper_architecture(std::size_t hidden_layers = 3,
                                                   std::size_t units = 64,
                                                   Activation act = Activation::kSelu);

 private:
  std::vector<DenseLayer> layers_;
  // Scratch buffers reused across train steps.
  std::vector<Matrix> fwd_;
  Matrix grad_, dx_;
};

}  // namespace gpufreq::nn
