#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpufreq/core/models.hpp"
#include "gpufreq/core/profiles.hpp"
#include "gpufreq/nn/precision.hpp"

namespace gpufreq::core {

/// Configuration of the offline training phase (§4, Figure 2 left side).
struct OfflineConfig {
  dcgm::CollectionConfig collection{
      .frequencies_mhz = {},    // all "used" frequencies of the device
      .runs = 3,                // paper: three runs per configuration
      .sample_interval_s = 0.02,
      .samples_per_run = 4,
      .input_scale = 1.0,
  };
  ModelConfig power_model = ModelConfig::paper_power_model();
  ModelConfig time_model = ModelConfig::paper_time_model();
  FeatureConfig features;
};

/// Offline phase: run every training workload across the DVFS space on the
/// (simulated) training GPU, build the feature dataset, and train the power
/// and time DNNs.
class OfflineTrainer {
 public:
  explicit OfflineTrainer(OfflineConfig config = {});

  const OfflineConfig& config() const { return config_; }

  /// Profile the suite and build the supervised dataset.
  Dataset collect_dataset(sim::GpuDevice& device,
                          const std::vector<workloads::WorkloadDescriptor>& suite) const;

  /// Train both models on an existing dataset.
  PowerTimeModels train_on(const Dataset& dataset) const;

  /// collect_dataset + train_on in one call.
  PowerTimeModels train(sim::GpuDevice& device,
                        const std::vector<workloads::WorkloadDescriptor>& suite) const;

 private:
  OfflineConfig config_;
};

/// One entry of a fused multi-request sweep: the max-frequency counters
/// and wall time of one application, plus the frequency grid to sweep it
/// across. `counters` and `frequencies` are borrowed — they must stay
/// alive until predict_sweep_batch returns.
struct BatchSweepItem {
  const sim::CounterSet* counters = nullptr;
  double measured_time_at_max_s = 0.0;
  std::span<const double> frequencies;
};

/// Rows per depth-first block of OnlinePredictor::predict_sweep_batch: a
/// block's feature rows go through both models before the next block is
/// extracted. A multiple of both register-tile heights (6 and 8 rows).
inline constexpr std::size_t kSweepBlockRows = 48;

/// Reusable scratch + results for OnlinePredictor::predict_sweep_batch.
/// All per-config arrays are concatenated item-major; `offsets` maps item
/// i to its row range [offsets[i], offsets[i+1]). Holds everything a sweep
/// touches — the sorted grids, one block's feature matrix both models
/// read, per-model inference scratch and the output curves — so a
/// warmed-up instance serves any batch at or below its high-water mark
/// without a single heap allocation. The feature matrix and the model
/// scratch hold at most kSweepBlockRows rows whatever the batch size; only
/// the per-row output vectors grow with it. One per thread.
struct BatchSweepWorkspace {
  std::vector<std::size_t> offsets;  ///< item -> first row (size items+1)
  std::vector<double> frequencies;   ///< per-item sorted grids, concatenated
  std::vector<double> power_w;
  std::vector<double> time_s;
  std::vector<double> energy_j;

  nn::Matrix features;               ///< current block: <= kSweepBlockRows x feature_dim
  DnnModel::Workspace power_model;
  DnnModel::Workspace time_model;

  std::size_t items() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t rows(std::size_t item) const { return offsets[item + 1] - offsets[item]; }
  std::span<const double> item_frequencies(std::size_t item) const {
    return {frequencies.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_power(std::size_t item) const {
    return {power_w.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_time(std::size_t item) const {
    return {time_s.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_energy(std::size_t item) const {
    return {energy_j.data() + offsets[item], rows(item)};
  }
};

/// Online phase (§4, Figure 2 right side): execute an application once, at
/// the maximum frequency only, then predict its power/time/energy across
/// every DVFS configuration by replicating its (frequency-invariant)
/// features with the clock feature swapped.
class OnlinePredictor {
 public:
  /// Borrows the models const and never repacks them. Inference is fp32;
  /// the Precision parameter exists only because the benchmark harness
  /// (benchmark/src/{fleet,closed_loop}.cpp) passes one, and the next
  /// change to the benchmark retires it (see gpufreq/nn/precision.hpp).
  explicit OnlinePredictor(const PowerTimeModels& models,
                           nn::Precision precision = nn::Precision::kFp32);

  /// Predicted DVFS profile for the workload on the given device. `runs`
  /// controls the max-frequency feature acquisition (paper: one execution).
  DvfsProfile predict(sim::GpuDevice& device, const workloads::WorkloadDescriptor& wl,
                      std::vector<double> frequencies = {}, int runs = 1,
                      double input_scale = 1.0) const;

  /// Predict from already-acquired max-frequency counters plus the measured
  /// wall time, without touching a device (pure model inference). A
  /// one-item predict_sweep_batch on a thread-local workspace, copied into
  /// a DvfsProfile.
  DvfsProfile predict_from_features(const sim::CounterSet& max_freq_counters,
                                    double measured_time_at_max_s, const sim::GpuSpec& spec,
                                    const std::vector<double>& frequencies,
                                    const std::string& workload_name) const;

  /// The online sweep, allocation-free and serial: sorts each item's
  /// frequencies into its slice of ws.frequencies, then walks the
  /// concatenated rows of all items depth-first in blocks of
  /// kSweepBlockRows — extract the block's feature rows, run the power
  /// model, then the time model, on that block — and leaves the clamped
  /// power/time/energy curves in ws. A block's activations stay in L1
  /// across every layer of both nets. Parallelism belongs to the caller,
  /// at request granularity (the service's drain shards). Every per-row
  /// computation (feature extraction, both models, clamps) is row-local in
  /// the kernel contract, so each item's slice of the result is bitwise
  /// identical to a one-item batch of that item. Items may carry ragged
  /// (different-length) frequency grids. Allocation-free once ws is warmed
  /// (or reserved via reserve_batch_workspace).
  void predict_sweep_batch(std::span<const BatchSweepItem> items, const sim::GpuSpec& spec,
                           BatchSweepWorkspace& ws) const;

  /// Pre-grow `ws` for batches of up to `max_items` items and `max_rows`
  /// total configurations, so the first drain is already allocation-free.
  /// `max_rows` sizes only the per-row output vectors; the block scratch
  /// is kSweepBlockRows rows.
  void reserve_batch_workspace(BatchSweepWorkspace& ws, std::size_t max_items,
                               std::size_t max_rows) const;

 private:
  const PowerTimeModels& models_;
  /// Metric names resolved once at construction so the sweep extraction
  /// loops run string-free (hot-path purity contract, DESIGN.md §8).
  FeaturePlan feature_plan_;
};

}  // namespace gpufreq::core
