// End-to-end microbench of the online inference path: one full
// 61-configuration DVFS sweep (power + time models) per iteration, per
// kernel backend, plus network-level forward passes, each fused dense
// layer at its sweep shape, and the sweep's non-network share that
// isolate where the time goes.
// tools/run_benchmarks.sh merges this into BENCH_perf.json.
//
// Benchmark arguments follow the shared axis in backend_axis.hpp: arg0 is
// the kernel backend (0 = scalar, 1 = avx2, 2 = avx512); rows whose
// backend this machine lacks are skipped, and every row carries a
// `backend` counter.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <utility>

#include "backend_axis.hpp"
#include "common.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/util/rng.hpp"

using namespace gpufreq;

namespace {

constexpr std::size_t kSweepRows = 61;  // GA100 used-frequency count

// Paper models, so every backend row sweeps the same trained weights.
const core::PowerTimeModels& sweep_models() {
  static const core::PowerTimeModels models = bench::paper_models();
  return models;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols) {
  Rng rng(7);
  nn::Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

// Forward pass of the paper architecture (3 -> 64 SELU x3 -> 1 linear)
// over the sweep batch: the fused kernel over packed weights, the only
// inference body.
void BM_NetworkForward(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  const nn::Network net(3, nn::Network::paper_architecture(), /*seed=*/123);
  const nn::Matrix x = random_batch(kSweepRows, 3);
  nn::InferenceWorkspace ws;
  for (auto _ : state) {
    const nn::Matrix& y = net.predict_into(x, ws);
    benchmark::DoNotOptimize(y.flat().data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(kSweepRows);
  bench::reset_backend();
}
BENCHMARK(BM_NetworkForward)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// One-item predict_sweep_batch of lammps over the 61 used clocks,
// reusing one workspace.
void run_sweeps(benchmark::State& state, const core::PowerTimeModels& models) {
  static sim::GpuDevice gpu = bench::make_ga100();
  const core::OnlinePredictor predictor(models);

  gpu.reset_clocks();
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  const core::BatchSweepItem item{.counters = &acq.mean_counters,
                                  .measured_time_at_max_s = acq.exec_time_s,
                                  .frequencies = freqs};
  core::BatchSweepWorkspace ws;
  for (auto _ : state) {
    predictor.predict_sweep_batch({&item, 1}, gpu.spec(), ws);
    benchmark::DoNotOptimize(ws.energy_j.data());
    benchmark::ClobberMemory();
  }
  state.counters["configs"] = static_cast<double>(freqs.size());
}

// The full online sweep: feature replication + both models + clamps, the
// 61-config sweep latency.
void BM_SweepPredict(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  run_sweeps(state, sweep_models());
  bench::reset_backend();
}
BENCHMARK(BM_SweepPredict)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// The sweep's non-network share: the same sweep — grid sort, feature
// extraction, both scalers, clamps and energy — with each 3 -> 64x3 -> 1
// network swapped for a single 3 -> 1 linear layer (3 MACs a row). The
// paper models' scalers are kept, so every non-network step costs what it
// does in the real sweep; BM_SweepPredict minus this row is the networks'
// share.
void BM_SweepNonNetwork(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  static const core::PowerTimeModels models = [] {
    core::PowerTimeModels m;
    m.features = sweep_models().features;
    const auto linear = [&](const core::DnnModel& src, core::Target target) {
      nn::ModelBundle bundle = src.bundle();
      bundle.network = nn::Network(m.features.dim(), {{1, nn::Activation::kLinear}}, 5);
      core::DnnModel out;
      out.restore(std::move(bundle), target);
      return out;
    };
    m.power = linear(sweep_models().power, core::Target::kPower);
    m.time = linear(sweep_models().time, core::Target::kTime);
    return m;
  }();
  run_sweeps(state, models);
  bench::reset_backend();
}
BENCHMARK(BM_SweepNonNetwork)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// One fused dense layer of the sweep, at its exact shape: arg1 is the
// row block (48 = kSweepBlockRows, 13 = the tail of a 61-row sweep), arg2
// the layer (0 = 3 -> 64 SELU, 1 = 64 -> 64 SELU, 2 = 64 -> 1 linear).
// Each net of a sweep runs layer 0 once, layer 1 twice and layer 2 once
// per block. The flops counter is the layer's multiply-add rate, the
// number to set beside the core's FMA ceiling (DESIGN.md §7).
void BM_DenseBiasAct(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  struct Layer {
    std::size_t k, n;
    nn::Activation act;
  };
  const Layer layers[] = {{3, 64, nn::Activation::kSelu},
                          {64, 64, nn::Activation::kSelu},
                          {64, 1, nn::Activation::kLinear}};
  const Layer& layer = layers[static_cast<std::size_t>(state.range(2))];
  const auto rows = static_cast<std::size_t>(state.range(1));
  const nn::Matrix x = random_batch(rows, layer.k);
  const nn::Matrix w = random_batch(layer.k, layer.n);
  const nn::Matrix bias = random_batch(1, layer.n);
  nn::kernels::PackedWeights packed;
  packed.pack(w);
  nn::Matrix y(rows, layer.n);
  const nn::kernels::KernelTable& kt = nn::kernels::active();
  for (auto _ : state) {
    kt.dense_bias_act(x.flat().data(), packed, bias.flat().data(), layer.act, y.flat().data(),
                      0, rows);
    benchmark::DoNotOptimize(y.flat().data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(rows * layer.k * layer.n),
      benchmark::Counter::kIsIterationInvariantRate);
  bench::reset_backend();
}
BENCHMARK(BM_DenseBiasAct)
    ->ArgsProduct({{0, 1, 2}, {48, 13}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
