#include "gpufreq/nn/layer.hpp"

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act)
    : w_(in_dim, out_dim), b_(out_dim, 0.0f), act_(act) {
  GPUFREQ_REQUIRE(in_dim > 0 && out_dim > 0, "DenseLayer: dimensions must be positive");
}

void DenseLayer::init_lecun_normal(Rng& rng) {
  const float stddev = lecun_normal_stddev(w_.rows());
  for (float& v : w_.flat()) v = static_cast<float>(rng.normal(0.0, stddev));
  for (float& v : b_) v = 0.0f;
  packed_.clear();
}

void DenseLayer::register_params(Optimizer& opt) {
  slot_w_ = opt.register_slot(w_.size());
  slot_b_ = opt.register_slot(b_.size());
}

void DenseLayer::forward(const Matrix& x, Matrix& out) {
  GPUFREQ_REQUIRE(x.cols() == w_.rows(), "DenseLayer::forward: input width mismatch");
  cached_x_ = &x;
  gemm(x, w_, cached_z_);
  add_row_vector(cached_z_, b_);
  out.resize_uninit(cached_z_.rows(), cached_z_.cols());
  activate(act_, cached_z_.flat(), out.flat());
}

void DenseLayer::forward_inference(const Matrix& x, Matrix& out) const {
  GPUFREQ_HOT("gpufreq::nn::DenseLayer::forward_inference");
  GPUFREQ_REQUIRE(x.cols() == w_.rows(), "DenseLayer::forward_inference: width mismatch");
  if (packed_.empty()) {
    // Unfused fallback: `out` doubles as the Z buffer (gemm output, bias
    // add, then in-place activation), so even this path allocates nothing
    // beyond `out` itself.
    gemm(x, w_, out);
    add_row_vector(out, b_);
    activate(act_, out.flat(), out.flat());
    return;
  }
  out.resize_uninit(x.rows(), w_.cols());
  if (x.rows() == 0) return;
  const kernels::KernelTable& kt = kernels::active();
  const float* X = x.flat().data();
  const float* bias = b_.data();
  float* Y = out.flat().data();
  // Same 48-row grain as gemm: chunk boundaries depend only on the batch
  // size, so the fused path is bitwise-stable across thread counts too.
  parallel_for(0, x.rows(), 48, [&](std::size_t lo, std::size_t hi) {
    kt.dense_bias_act(X, packed_, bias, act_, Y, lo, hi);
  });
  GPUFREQ_DCHECK_FINITE(out);
}

void DenseLayer::prepare_inference() { packed_.pack(w_); }

void DenseLayer::backward(const Matrix& delta, Matrix& dx) {
  GPUFREQ_REQUIRE(cached_x_ != nullptr, "DenseLayer::backward: forward not called");
  GPUFREQ_REQUIRE(delta.rows() == cached_z_.rows() && delta.cols() == cached_z_.cols(),
                  "DenseLayer::backward: delta shape mismatch (forward not called?)");
  // dL/dZ = dL/dY * act'(Z)
  delta_z_.resize_uninit(delta.rows(), delta.cols());
  activate_derivative(act_, cached_z_.flat(), delta_z_.flat());
  {
    auto dz = delta_z_.flat();
    auto dy = delta.flat();
    for (std::size_t i = 0; i < dz.size(); ++i) dz[i] *= dy[i];
  }

  // Parameter gradients, averaged over the batch.
  gemm_tn(*cached_x_, delta_z_, grad_w_);
  grad_b_.resize(b_.size());
  column_sums(delta_z_, grad_b_);  // column_sums zero-fills grad_b_ itself
  const float inv_batch = 1.0f / static_cast<float>(delta.rows());
  for (float& v : grad_w_.flat()) v *= inv_batch;
  for (float& v : grad_b_) v *= inv_batch;

  // dL/dX = dL/dZ * W^T
  gemm_nt(delta_z_, w_, dx);
}

void DenseLayer::apply_gradients(Optimizer& opt) {
  GPUFREQ_REQUIRE(slot_w_ != static_cast<std::size_t>(-1),
                  "DenseLayer: register_params was not called");
  opt.update(slot_w_, w_.flat(), grad_w_.flat());
  opt.update(slot_b_, b_, grad_b_);
  packed_.clear();
}

}  // namespace gpufreq::nn
