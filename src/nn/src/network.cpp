#include "gpufreq/nn/network.hpp"

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::nn {

Network::Network(std::size_t input_dim, const std::vector<LayerSpec>& layers,
                 std::uint64_t seed) {
  GPUFREQ_REQUIRE(input_dim > 0, "Network: input_dim must be positive");
  GPUFREQ_REQUIRE(!layers.empty(), "Network: at least one layer required");
  Rng rng(seed);
  std::size_t in = input_dim;
  layers_.reserve(layers.size());
  for (const LayerSpec& spec : layers) {
    GPUFREQ_REQUIRE(spec.units > 0, "Network: layer units must be positive");
    layers_.emplace_back(in, spec.units, spec.activation);
    layers_.back().init_lecun_normal(rng);
    in = spec.units;
  }
  prepare_inference();
}

std::size_t Network::input_dim() const {
  GPUFREQ_REQUIRE(!layers_.empty(), "Network: empty network");
  return layers_.front().in_dim();
}

std::size_t Network::output_dim() const {
  GPUFREQ_REQUIRE(!layers_.empty(), "Network: empty network");
  return layers_.back().out_dim();
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights().size() + l.bias().size();
  return n;
}

namespace {
// Workspace behind the workspace-less convenience overloads. Thread-local
// so concurrent predict() calls on different threads never share buffers.
InferenceWorkspace& fallback_workspace() {
  static thread_local InferenceWorkspace ws;
  return ws;
}
}  // namespace

const Matrix& Network::predict_into(const Matrix& x, InferenceWorkspace& ws) const {
  GPUFREQ_HOT("gpufreq::nn::Network::predict_into");
  GPUFREQ_REQUIRE(!layers_.empty(), "Network::predict: empty network");
  GPUFREQ_REQUIRE(x.rows() > 0, "Network::predict: empty batch");
  // Ping-pong between the workspace buffers; the input is only ever read,
  // so no up-front copy of x is needed.
  const Matrix* cur = &x;
  std::size_t w = 0;
  for (const auto& l : layers_) {
    l.forward_inference(*cur, ws.bufs_[w]);
    cur = &ws.bufs_[w];
    w ^= 1;
  }
  return *cur;
}

Matrix Network::predict(const Matrix& x) const {
  return predict_into(x, fallback_workspace());
}

std::vector<double> Network::predict_vector(const Matrix& x) const {
  std::vector<double> out(x.rows());
  predict_vector_into(x, fallback_workspace(), out);
  return out;
}

void Network::predict_vector_into(const Matrix& x, InferenceWorkspace& ws,
                                  std::span<double> out) const {
  GPUFREQ_HOT("gpufreq::nn::Network::predict_vector_into");
  GPUFREQ_REQUIRE(output_dim() == 1, "Network::predict_vector: network is not single-output");
  GPUFREQ_REQUIRE(out.size() == x.rows(), "Network::predict_vector: output size mismatch");
  const Matrix& y = predict_into(x, ws);
  for (std::size_t i = 0; i < y.rows(); ++i) out[i] = y(i, 0);
}

void Network::reserve_workspace(InferenceWorkspace& ws, std::size_t max_rows) const {
  std::size_t widest = 0;
  for (const auto& l : layers_) widest = std::max(widest, l.out_dim());
  ws.bufs_[0].reserve(max_rows, widest);
  ws.bufs_[1].reserve(max_rows, widest);
}

void Network::prepare_inference() {
  for (auto& l : layers_) l.prepare_inference();
}

bool Network::inference_prepared() const {
  for (const auto& l : layers_) {
    if (!l.inference_prepared()) return false;
  }
  return !layers_.empty();
}

void Network::bind_optimizer(Optimizer& opt) {
  for (auto& l : layers_) l.register_params(opt);
}

double Network::train_step(const Matrix& x, const Matrix& y, Loss loss, Optimizer& opt) {
  GPUFREQ_REQUIRE(x.rows() == y.rows(), "train_step: batch size mismatch");
  fwd_.resize(layers_.size());
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward(*cur, fwd_[i]);
    cur = &fwd_[i];
  }
  const double batch_loss = compute_loss(loss, *cur, y);
  loss_gradient(loss, *cur, y, grad_);
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i].backward(grad_, dx_);
    std::swap(grad_, dx_);
  }
  for (auto& l : layers_) l.apply_gradients(opt);
  opt.tick();
  return batch_loss;
}

double Network::evaluate(const Matrix& x, const Matrix& y, Loss loss) const {
  return compute_loss(loss, predict(x), y);
}

std::vector<LayerSpec> Network::paper_architecture(std::size_t hidden_layers,
                                                   std::size_t units, Activation act) {
  std::vector<LayerSpec> specs;
  for (std::size_t i = 0; i < hidden_layers; ++i) specs.push_back({units, act});
  specs.push_back({1, Activation::kLinear});
  return specs;
}

}  // namespace gpufreq::nn
