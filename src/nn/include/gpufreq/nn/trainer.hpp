#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpufreq/nn/network.hpp"

namespace gpufreq::nn {

/// Training hyper-parameters. Defaults follow the paper (§4.3): batch 64,
/// RMSprop, MSE, an 80/20 train/validation split, and 100 (power) or 25
/// (time) epochs chosen from the loss curves of Figure 6.
struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 64;
  double validation_split = 0.2;   ///< fraction held out for validation
  std::string optimizer = "rmsprop";
  double learning_rate = -1.0;     ///< <= 0: optimizer default
  Loss loss = Loss::kMse;
  std::uint64_t shuffle_seed = 0x5EED5EEDULL;
  bool shuffle_each_epoch = true;
  std::size_t early_stop_patience = 0;  ///< 0 disables early stopping
  bool verbose = false;
};

/// Per-epoch loss history (Figure 6 reproduces these curves).
struct TrainHistory {
  std::vector<double> train_loss;
  std::vector<double> val_loss;
  std::size_t epochs_run = 0;
  double wall_seconds = 0.0;

  double final_train_loss() const { return train_loss.empty() ? 0.0 : train_loss.back(); }
  double final_val_loss() const { return val_loss.empty() ? 0.0 : val_loss.back(); }
};

/// Mini-batch trainer driving Network::train_step.
class Trainer {
 public:
  explicit Trainer(TrainConfig config = {});

  const TrainConfig& config() const { return config_; }

  /// Fit `net` on (x, y). Rows are shuffled once to form the split, then
  /// (optionally) every epoch for batching. Returns the loss history and
  /// leaves `net` packed for inference (Network::prepare_inference).
  TrainHistory fit(Network& net, const Matrix& x, const Matrix& y) const;

 private:
  TrainConfig config_;
};

}  // namespace gpufreq::nn
