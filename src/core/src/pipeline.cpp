#include "gpufreq/core/pipeline.hpp"

#include <algorithm>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "gpufreq/util/logging.hpp"
#include "gpufreq/util/sort.hpp"
#include "gpufreq/util/workspace.hpp"

namespace gpufreq::core {

OfflineTrainer::OfflineTrainer(OfflineConfig config) : config_(std::move(config)) {}

Dataset OfflineTrainer::collect_dataset(
    sim::GpuDevice& device, const std::vector<workloads::WorkloadDescriptor>& suite) const {
  GPUFREQ_REQUIRE(!suite.empty(), "OfflineTrainer: empty training suite");
  dcgm::ProfilingSession session(device, config_.collection);
  const dcgm::CollectionResult result = session.profile_suite(suite);
  return build_dataset(result, device.spec(), config_.features);
}

PowerTimeModels OfflineTrainer::train_on(const Dataset& dataset) const {
  PowerTimeModels models;
  models.features = config_.features;
  log::info("core") << "training power model on " << dataset.size() << " rows ("
                    << config_.power_model.epochs << " epochs)";
  models.power_history = models.power.train(dataset, Target::kPower, config_.power_model);
  log::info("core") << "training time model on " << dataset.size() << " rows ("
                    << config_.time_model.epochs << " epochs)";
  models.time_history = models.time.train(dataset, Target::kTime, config_.time_model);
  return models;
}

PowerTimeModels OfflineTrainer::train(
    sim::GpuDevice& device, const std::vector<workloads::WorkloadDescriptor>& suite) const {
  return train_on(collect_dataset(device, suite));
}

OnlinePredictor::OnlinePredictor(const PowerTimeModels& models, nn::Precision)
    : models_(models), feature_plan_(models.features) {
  GPUFREQ_REQUIRE(models_.power.trained() && models_.time.trained(),
                  "OnlinePredictor: models must be trained");
}

DvfsProfile OnlinePredictor::predict(sim::GpuDevice& device,
                                     const workloads::WorkloadDescriptor& wl,
                                     std::vector<double> frequencies, int runs,
                                     double input_scale) const {
  GPUFREQ_REQUIRE(runs > 0, "OnlinePredictor: runs must be positive");
  if (frequencies.empty()) frequencies = device.spec().used_frequencies();

  // Single max-frequency execution: acquire features + wall time.
  dcgm::CollectionConfig cc;
  cc.frequencies_mhz = {device.spec().default_core_mhz};
  cc.runs = runs;
  cc.samples_per_run = 8;
  cc.input_scale = input_scale;
  dcgm::ProfilingSession session(device, cc);
  const dcgm::CollectionResult result = session.profile_at_max(wl);

  GPUFREQ_REQUIRE(!result.runs.empty(), "OnlinePredictor: max-frequency run failed");
  sim::CounterSet mean = result.runs.front().mean_counters;
  double t_max = 0.0;
  if (result.runs.size() > 1) {
    // Average the repeat runs' counters; exec time is the run mean.
    mean = sim::CounterSet{};
    for (const auto& r : result.runs) {
      mean.fp64_active += r.mean_counters.fp64_active;
      mean.fp32_active += r.mean_counters.fp32_active;
      mean.dram_active += r.mean_counters.dram_active;
      mean.gr_engine_active += r.mean_counters.gr_engine_active;
      mean.gpu_utilization += r.mean_counters.gpu_utilization;
      mean.sm_active += r.mean_counters.sm_active;
      mean.sm_occupancy += r.mean_counters.sm_occupancy;
      mean.pcie_tx_bytes += r.mean_counters.pcie_tx_bytes;
      mean.pcie_rx_bytes += r.mean_counters.pcie_rx_bytes;
      t_max += r.exec_time_s;
    }
    const double inv = 1.0 / static_cast<double>(result.runs.size());
    mean.fp64_active *= inv;
    mean.fp32_active *= inv;
    mean.dram_active *= inv;
    mean.gr_engine_active *= inv;
    mean.gpu_utilization *= inv;
    mean.sm_active *= inv;
    mean.sm_occupancy *= inv;
    mean.pcie_tx_bytes *= inv;
    mean.pcie_rx_bytes *= inv;
    mean.sm_app_clock = device.spec().default_core_mhz;
    t_max *= inv;
    mean.exec_time = t_max;
  } else {
    t_max = result.runs.front().exec_time_s;
  }

  return predict_from_features(mean, t_max, device.spec(), frequencies, wl.name);
}

DvfsProfile OnlinePredictor::predict_from_features(const sim::CounterSet& max_freq_counters,
                                                   double measured_time_at_max_s,
                                                   const sim::GpuSpec& spec,
                                                   const std::vector<double>& frequencies,
                                                   const std::string& workload_name) const {
  // Heap-free in steady state: the workspace keeps its high-water buffers
  // per thread, so only the returned profile allocates.
  static thread_local BatchSweepWorkspace ws;
  const BatchSweepItem item{.counters = &max_freq_counters,
                            .measured_time_at_max_s = measured_time_at_max_s,
                            .frequencies = frequencies};
  predict_sweep_batch({&item, 1}, spec, ws);

  DvfsProfile p;
  p.workload = workload_name;
  p.gpu = spec.name;
  p.predicted = true;
  p.frequency_mhz = ws.frequencies;
  p.power_w = ws.power_w;
  p.time_s = ws.time_s;
  p.energy_j = ws.energy_j;
  p.validate();
  return p;
}

void OnlinePredictor::predict_sweep_batch(std::span<const BatchSweepItem> items,
                                          const sim::GpuSpec& spec,
                                          BatchSweepWorkspace& ws) const {
  GPUFREQ_HOT("gpufreq::core::OnlinePredictor::predict_sweep_batch");
  GPUFREQ_REQUIRE(!items.empty(), "OnlinePredictor: empty sweep batch");

  detail::workspace_resize(ws.offsets, items.size() + 1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchSweepItem& item = items[i];
    GPUFREQ_REQUIRE(item.counters != nullptr, "OnlinePredictor: batch item without counters");
    GPUFREQ_REQUIRE(item.measured_time_at_max_s > 0.0,
                    "OnlinePredictor: measured time must be positive");
    GPUFREQ_REQUIRE(!item.frequencies.empty(), "OnlinePredictor: batch item with no frequencies");
    ws.offsets[i] = total;
    total += item.frequencies.size();
  }
  ws.offsets[items.size()] = total;

  // Per-item grids sorted ascending, concatenated item-major. Heapsort,
  // not std::sort: introsort recursion is rejected by the stack-bound gate
  // (gpufreq/util/sort.hpp).
  detail::workspace_resize(ws.frequencies, total);
  for (std::size_t i = 0; i < items.size(); ++i) {
    double* seg = ws.frequencies.data() + ws.offsets[i];
    std::copy(items[i].frequencies.begin(), items[i].frequencies.end(), seg);
    detail::bounded_sort(seg, seg + items[i].frequencies.size());
  }

  detail::workspace_resize(ws.power_w, total);
  detail::workspace_resize(ws.time_s, total);
  detail::workspace_resize(ws.energy_j, total);

  // Depth-first over the concatenated rows: each block of kSweepBlockRows
  // rows gets its feature rows, then goes through the power model and
  // then the time model, before the next block starts. The feature rows
  // replicate each item's (frequency-invariant) features across its grid
  // with only the clock feature swapped — the paper's key data-reduction
  // idea. Every row depends only on (its item's counters, its own
  // frequency) and every kernel is row-local, so each item's slice is
  // bitwise identical for any batch composition and block boundary.
  const std::size_t dim = models_.features.dim();
  std::size_t item = 0;
  sim::CounterSet c = *items[0].counters;
  for (std::size_t lo = 0; lo < total; lo += kSweepBlockRows) {
    const std::size_t n = std::min(kSweepBlockRows, total - lo);
    ws.features.resize_uninit(n, dim);
    for (std::size_t r = 0; r < n; ++r) {
      while (lo + r >= ws.offsets[item + 1]) c = *items[++item].counters;
      c.sm_app_clock = ws.frequencies[lo + r];
      feature_plan_.extract_into(c, ws.features.row(r));
    }
    models_.power.predict_into(ws.features, ws.power_model, {ws.power_w.data() + lo, n});
    models_.time.predict_into(ws.features, ws.time_model, {ws.time_s.data() + lo, n});
  }
  // A NaN here means poisoned weights or features; fail before it turns
  // into a silently wrong "optimal" frequency downstream.
  GPUFREQ_CHECK_FINITE(ws.power_w);
  GPUFREQ_CHECK_FINITE(ws.time_s);

  for (std::size_t i = 0; i < items.size(); ++i) {
    const double t_max = items[i].measured_time_at_max_s;
    for (std::size_t r = ws.offsets[i]; r < ws.offsets[i + 1]; ++r) {
      // Clamp to physically meaningful ranges: the DNN output is unbounded.
      const double pw = std::max(1.0, ws.power_w[r] * spec.tdp_w);
      const double t = std::max(1e-6, ws.time_s[r] * t_max);
      ws.power_w[r] = pw;
      ws.time_s[r] = t;
      ws.energy_j[r] = pw * t;  // Equation 8
    }
  }
}

void OnlinePredictor::reserve_batch_workspace(BatchSweepWorkspace& ws, std::size_t max_items,
                                              std::size_t max_rows) const {
  ws.offsets.reserve(max_items + 1);
  ws.frequencies.reserve(max_rows);
  ws.power_w.reserve(max_rows);
  ws.time_s.reserve(max_rows);
  ws.energy_j.reserve(max_rows);
  ws.features.reserve(kSweepBlockRows, models_.features.dim());
  models_.power.reserve_workspace(ws.power_model, kSweepBlockRows);
  models_.time.reserve_workspace(ws.time_model, kSweepBlockRows);
}

}  // namespace gpufreq::core
