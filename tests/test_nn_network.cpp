#include "gpufreq/nn/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"

namespace gpufreq::nn {
namespace {

Matrix make_inputs(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

TEST(Network, PaperArchitectureShape) {
  const auto specs = Network::paper_architecture();
  ASSERT_EQ(specs.size(), 4u);  // 3 hidden + output
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(specs[i].units, 64u);
    EXPECT_EQ(specs[i].activation, Activation::kSelu);
  }
  EXPECT_EQ(specs[3].units, 1u);
  EXPECT_EQ(specs[3].activation, Activation::kLinear);
}

TEST(Network, ParameterCountPaperModel) {
  const Network net(3, Network::paper_architecture(), 1);
  // 3*64+64 + 64*64+64 + 64*64+64 + 64*1+1 = 8641
  EXPECT_EQ(net.parameter_count(), 8641u);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 1u);
  EXPECT_EQ(net.num_layers(), 4u);
}

TEST(Network, ConstructionValidation) {
  EXPECT_THROW(Network(0, Network::paper_architecture(), 1), InvalidArgument);
  EXPECT_THROW(Network(3, {}, 1), InvalidArgument);
  EXPECT_THROW(Network(3, {{0, Activation::kRelu}}, 1), InvalidArgument);
}

TEST(Network, PredictShapeAndDeterminism) {
  const Network net(3, Network::paper_architecture(), 7);
  Rng rng(3);
  const Matrix x = make_inputs(5, 3, rng);
  const Matrix y1 = net.predict(x);
  const Matrix y2 = net.predict(x);
  ASSERT_EQ(y1.rows(), 5u);
  ASSERT_EQ(y1.cols(), 1u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y1(i, 0), y2(i, 0));
}

TEST(Network, SameSeedSameWeights) {
  const Network a(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  const Network b(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  Rng rng(5);
  const Matrix x = make_inputs(4, 2, rng);
  const Matrix ya = a.predict(x);
  const Matrix yb = b.predict(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(ya(i, 0), yb(i, 0));
}

TEST(Network, DifferentSeedDifferentWeights) {
  const Network a(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  const Network b(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 12);
  Rng rng(5);
  const Matrix x = make_inputs(4, 2, rng);
  EXPECT_NE(a.predict(x)(0, 0), b.predict(x)(0, 0));
}

TEST(Network, PredictVectorRequiresSingleOutput) {
  const Network multi(2, {{4, Activation::kRelu}, {2, Activation::kLinear}}, 1);
  Rng rng(5);
  const Matrix x = make_inputs(3, 2, rng);
  EXPECT_THROW(multi.predict_vector(x), InvalidArgument);
  const Network single(2, {{4, Activation::kRelu}, {1, Activation::kLinear}}, 1);
  EXPECT_EQ(single.predict_vector(x).size(), 3u);
}

// Analytic gradient check: compare backprop parameter gradients against
// central finite differences on a tiny network.
TEST(Network, GradientsMatchFiniteDifferences) {
  Network net(2, {{5, Activation::kTanh}, {1, Activation::kLinear}}, 3);
  Rng rng(9);
  const Matrix x = make_inputs(6, 2, rng);
  Matrix y(6, 1);
  for (std::size_t i = 0; i < 6; ++i) {
    y(i, 0) = std::sin(x(i, 0)) + 0.5f * x(i, 1);
  }

  // A zero-learning-rate SGD step computes (and discards) gradients while
  // leaving the parameters unchanged; we recover the gradients via a
  // second, tiny-lr step on a cloned network.
  const double h = 1e-3;
  Sgd probe(1e-9);
  net.bind_optimizer(probe);

  // Loss functional for finite differences. The weights are mutated
  // through the non-const accessor, so re-pack before every evaluation.
  auto loss_at = [&](Network& n) {
    n.prepare_inference();
    return n.evaluate(x, y, Loss::kMse);
  };

  // Perturb a handful of weights in each layer and compare the directional
  // derivative with backprop's gradient, recovered from the parameter
  // delta of one unit-lr SGD step on a copy.
  Network stepped = net;  // copy shares no state
  Sgd unit(1.0);
  stepped.bind_optimizer(unit);
  stepped.train_step(x, y, Loss::kMse, unit);

  int checked = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    auto& w = net.layer(li).weights();
    const auto& w_after = stepped.layer(li).weights();
    for (std::size_t idx = 0; idx < w.size(); idx += std::max<std::size_t>(1, w.size() / 4)) {
      const std::size_t r = idx / w.cols();
      const std::size_t c = idx % w.cols();
      const float orig = w(r, c);
      // grad = (w_before - w_after) / lr, lr = 1, batch divides internally.
      const double grad_bp = static_cast<double>(orig) - static_cast<double>(w_after(r, c));

      w(r, c) = orig + static_cast<float>(h);
      const double lp = loss_at(net);
      w(r, c) = orig - static_cast<float>(h);
      const double lm = loss_at(net);
      w(r, c) = orig;
      const double grad_fd = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(grad_bp, grad_fd, 2e-2 * std::max(1.0, std::abs(grad_fd)))
          << "layer " << li << " idx " << idx;
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
}

TEST(Network, TrainingReducesLossOnSmoothFunction) {
  Network net(2, {{16, Activation::kSelu}, {16, Activation::kSelu}, {1, Activation::kLinear}},
              17);
  Rng rng(21);
  const Matrix x = make_inputs(256, 2, rng);
  Matrix y(256, 1);
  for (std::size_t i = 0; i < 256; ++i) {
    y(i, 0) = x(i, 0) * x(i, 0) - 0.5f * x(i, 1);
  }
  RmsProp opt(1e-3);
  net.bind_optimizer(opt);
  const double before = net.evaluate(x, y, Loss::kMse);
  for (int epoch = 0; epoch < 120; ++epoch) net.train_step(x, y, Loss::kMse, opt);
  net.prepare_inference();  // train_step leaves the packs stale
  const double after = net.evaluate(x, y, Loss::kMse);
  EXPECT_LT(after, 0.2 * before);
}

TEST(Network, TrainStepRejectsMismatchedBatch) {
  Network net(2, {{4, Activation::kRelu}, {1, Activation::kLinear}}, 1);
  Sgd opt(0.1);
  net.bind_optimizer(opt);
  Matrix x(3, 2), y(2, 1);
  EXPECT_THROW(net.train_step(x, y, Loss::kMse, opt), InvalidArgument);
}

TEST(Network, UnpackedLayerInferenceThrows) {
  DenseLayer layer(3, 4, Activation::kSelu);
  ASSERT_FALSE(layer.inference_prepared());
  Matrix x(2, 3, 0.5f), y;
  EXPECT_THROW(layer.forward_inference(x, y), InvalidArgument);
  layer.prepare_inference();
  layer.forward_inference(x, y);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 4u);
}

// The constructor packs; mutable weight or bias access marks the pack
// stale, and inference refuses to run until it is packed again.
TEST(Network, WeightChangeRequiresPrepareInference) {
  Network net(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  ASSERT_TRUE(net.inference_prepared());
  Rng rng(5);
  const Matrix x = make_inputs(4, 2, rng);
  const Matrix before = net.predict(x);

  // One gradient-style update of a weight through the mutable accessor.
  net.layer(0).weights()(0, 0) -= 0.25f;
  EXPECT_FALSE(net.inference_prepared());
  EXPECT_THROW(net.predict(x), InvalidArgument);
  net.prepare_inference();
  const Matrix after = net.predict(x);
  EXPECT_NE(before(0, 0), after(0, 0));

  net.layer(1).bias()[0] += 1.0f;
  EXPECT_FALSE(net.inference_prepared());
  EXPECT_THROW(net.predict(x), InvalidArgument);
  net.prepare_inference();
  EXPECT_NEAR(net.predict(x)(0, 0), after(0, 0) + 1.0f, 1e-4f);
}

TEST(Network, EmptyNetworkGuards) {
  Network net;
  EXPECT_THROW(net.input_dim(), InvalidArgument);
  EXPECT_THROW(net.predict(Matrix(1, 1)), InvalidArgument);
}

}  // namespace
}  // namespace gpufreq::nn
