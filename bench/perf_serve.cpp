// Microbench of the multi-tenant sweep service: fused N-request batched
// sweeps vs N sequential one-item sweeps, the service drain cycle
// under a fleet-style request mix (finite app catalog -> bit-identical
// requests coalesce), and an open-loop load run reporting requests/sec and
// p50/p99 latency per priority band. tools/run_benchmarks.sh merges this
// into BENCH_perf.json.
//
// Benchmark arguments follow the shared axis in backend_axis.hpp: arg0 is
// the kernel backend (0 = scalar, 1 = avx2, 2 = avx512); the next
// argument is the batch size N;
// BM_ServiceDrainFleet adds two more — the number of distinct
// applications the N requests are drawn from ("sweeps_per_s" counts ALL
// requests served, so the batched/sequential ratio at equal N is the
// service's aggregate speedup), and whether the exact-key sweep-curve
// cache is enabled (0 = off, the PR 7 no-cache behavior; 1 = on — after
// the first drain every repeat application is served from the cache
// without touching the GEMM chain, with a "hit_rate" counter reported).
// BM_ServeOpenLoop's extra axis is the Zipf skew x100 (0 = uniform).
// Every row carries a `backend` counter.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "backend_axis.hpp"
#include "common.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"

using namespace gpufreq;

namespace {

// Paper models, shared by every row.
std::shared_ptr<const core::PowerTimeModels> shared_models_ptr() {
  static const std::shared_ptr<const core::PowerTimeModels> ptr =
      std::make_shared<core::PowerTimeModels>(bench::paper_models());
  return ptr;
}

const core::PowerTimeModels& shared_models() { return *shared_models_ptr(); }

/// N distinct applications (unique counters): the no-coalescing baseline
/// workload shared by the sequential and batched rows.
std::vector<serve::CatalogEntry> unique_apps(std::size_t n, const sim::GpuSpec& spec) {
  return serve::make_catalog(n, spec, /*seed=*/0xA9B0);
}

// Baseline: N independent online sweeps, one one-item predict_sweep_batch
// per request (what N tenants hitting N per-tenant predictors would cost).
void BM_SequentialSweeps(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  const core::OnlinePredictor predictor(shared_models());
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto apps = unique_apps(n, spec);
  const std::vector<double> freqs = spec.used_frequencies();

  core::BatchSweepWorkspace ws;
  for (auto _ : state) {
    for (const serve::CatalogEntry& app : apps) {
      const core::BatchSweepItem item{.counters = &app.counters,
                                      .measured_time_at_max_s = app.measured_time_at_max_s,
                                      .frequencies = freqs};
      predictor.predict_sweep_batch({&item, 1}, spec, ws);
      benchmark::DoNotOptimize(ws.energy_j.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["batch"] = static_cast<double>(n);
  state.counters["sweeps_per_s"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  bench::reset_backend();
}
BENCHMARK(BM_SequentialSweeps)
    ->Args({1, 1})->Args({1, 16})->Args({1, 61})->Args({1, 100})
    ->Args({0, 16})->Args({2, 16})->Args({2, 61})->Args({2, 100})
    ->Unit(benchmark::kMicrosecond);

// The batched path on the same N unique requests: one predict_sweep_batch
// over N x 61 rows, walked depth-first in 48-row blocks through both
// models. Measures what batching saves (per-call checks, sorting setup,
// dispatch) with zero coalescing.
void BM_BatchedSweepUnique(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  const core::OnlinePredictor predictor(shared_models());
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto apps = unique_apps(n, spec);
  const std::vector<double> freqs = spec.used_frequencies();

  std::vector<core::BatchSweepItem> items;
  items.reserve(n);
  for (const serve::CatalogEntry& app : apps)
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = freqs});

  core::BatchSweepWorkspace ws;
  predictor.reserve_batch_workspace(ws, n, n * freqs.size());
  for (auto _ : state) {
    predictor.predict_sweep_batch(items, spec, ws);
    benchmark::DoNotOptimize(ws.energy_j.data());
    benchmark::ClobberMemory();
  }
  state.counters["batch"] = static_cast<double>(n);
  state.counters["sweeps_per_s"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  bench::reset_backend();
}
BENCHMARK(BM_BatchedSweepUnique)
    ->Args({1, 1})->Args({1, 16})->Args({1, 61})->Args({1, 100})
    ->Args({0, 16})->Args({2, 16})->Args({2, 61})->Args({2, 100})
    ->Unit(benchmark::kMicrosecond);

// The full service drain cycle under a fleet mix: N requests per batch
// drawn round-robin from a catalog of `apps` distinct applications (fleet
// nodes running a finite app catalog submit bit-identical requests, which
// coalesce). sweeps_per_s counts all N served requests — the multi-tenant
// aggregate a deployment sees.
void BM_ServiceDrainFleet(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  serve::ModelSnapshotHolder holder(shared_models_ptr());
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::size_t napps = static_cast<std::size_t>(state.range(2));
  const bool cache_on = state.range(3) != 0;
  serve::ServiceConfig config;
  config.max_batch = n;
  if (!cache_on) config.cache.sets = 0;  // PR 7 behavior: recompute every drain
  serve::SweepService service(holder, spec, config);
  const auto catalog = serve::make_catalog(napps, spec, /*seed=*/0xF1EE7);

  const auto submit_batch = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      serve::SweepRequest r;
      r.descriptor = {.category = serve::WorkloadCategory::kInteractive, .band = 0};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)service.submit(std::move(r));
    }
  };

  for (auto _ : state) {
    // Submission is part of the measured cycle on purpose: the 3x claim is
    // about the end-to-end serving cost, not just the GEMM.
    submit_batch();
    const std::size_t served = service.drain_once();
    benchmark::DoNotOptimize(served);
    benchmark::ClobberMemory();
  }
  state.counters["batch"] = static_cast<double>(n);
  state.counters["apps"] = static_cast<double>(napps);
  state.counters["sweeps_per_s"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  const serve::ServiceStats stats = service.stats();
  state.counters["cache"] = cache_on ? 1.0 : 0.0;
  state.counters["coalesced_frac"] =
      stats.completed > 0
          ? static_cast<double>(stats.coalesced) / static_cast<double>(stats.completed)
          : 0.0;
  const std::uint64_t probes = stats.cache_hits + stats.cache_misses;
  state.counters["hit_rate"] =
      probes > 0 ? static_cast<double>(stats.cache_hits) / static_cast<double>(probes) : 0.0;
  bench::reset_backend();
}
BENCHMARK(BM_ServiceDrainFleet)
    ->Args({1, 16, 4, 0})->Args({1, 61, 27, 0})->Args({1, 100, 27, 0})
    ->Args({1, 100, 100, 0})  // worst case: every request unique, no coalescing
    ->Args({0, 16, 4, 0})->Args({2, 100, 100, 0})
    // Exact-key cache rows: the same fleet mixes with memoization on. The
    // {*, 100, 27, 1} rows are the acceptance pair for the >= 5x
    // cached-vs-uncached sweeps/s claim (repeat rate 1.0 across drains;
    // any repeat rate >= 0.8 interpolates between the two).
    ->Args({1, 16, 4, 1})->Args({1, 61, 27, 1})->Args({1, 100, 27, 1})
    ->Args({1, 100, 100, 1})
    ->Args({0, 16, 4, 1})->Args({2, 100, 100, 1})
    ->Unit(benchmark::kMicrosecond);

// Open-loop load against the background worker: requests/sec plus p50/p99
// total latency per priority band (system / interactive / batch), the
// service-level numbers BENCH_perf.json tracks.
void BM_ServeOpenLoop(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  serve::ModelSnapshotHolder holder(shared_models_ptr());
  serve::ServiceConfig config;
  serve::SweepService service(holder, spec, config);
  service.start();

  serve::LoadSpec load;
  load.rate_hz = static_cast<double>(state.range(1));
  load.duration_s = 0.25;
  load.catalog_size = 27;
  load.zipf_s = static_cast<double>(state.range(2)) / 100.0;

  serve::LoadReport report;
  for (auto _ : state) {
    report = serve::run_open_loop(service, load);
    benchmark::DoNotOptimize(report.completed);
  }
  service.stop();

  state.counters["rate_hz"] = load.rate_hz;
  state.counters["zipf_s"] = load.zipf_s;
  state.counters["requests_per_s"] = report.throughput_rps;
  const std::uint64_t probes = report.service.cache_hits + report.service.cache_misses;
  state.counters["hit_rate"] =
      probes > 0
          ? static_cast<double>(report.service.cache_hits) / static_cast<double>(probes)
          : 0.0;
  for (const serve::BandLoadStats& band : report.bands) {
    state.counters["p50_ms_" + band.band] = band.p50_latency_ms;
    state.counters["p99_ms_" + band.band] = band.p99_latency_ms;
    state.counters["p999_ms_" + band.band] = band.p999_latency_ms;
  }
  bench::reset_backend();
}
BENCHMARK(BM_ServeOpenLoop)
    ->Args({1, 2000, 0})->Args({1, 8000, 0})
    // Zipf(1.1)-skewed arrivals: the repeat-heavy fleet regime the curve
    // cache targets — hit_rate and the p99.9 tails are the story here.
    ->Args({1, 8000, 110})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
