// Zero-allocation guarantee of the batched serving path, verified with a
// counting global operator new (same instrument as test_inference_sweep):
// a warmed predict_sweep_batch — and a warmed SweepService drain cycle,
// locks, coalescing scan, result publication and all — must never touch
// the heap in steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gpufreq::serve {
namespace {

TEST(ServeAlloc, SteadyStateBatchSweepIsAllocationFree) {
  const auto models = fabricate_models(42);
  const core::OnlinePredictor predictor(*models);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = spec.used_frequencies();

  std::vector<core::BatchSweepItem> items;
  for (std::size_t i = 0; i < 61; ++i) {
    const CatalogEntry& app = catalog[i % catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grid});
  }

  core::BatchSweepWorkspace ws;
  for (int i = 0; i < 3; ++i) predictor.predict_sweep_batch(items, spec, ws);

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 5; ++i) predictor.predict_sweep_batch(items, spec, ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "steady-state predict_sweep_batch must not touch the heap";
}

TEST(ServeAlloc, ReservedWorkspaceFirstBatchIsAllocationFree) {
  const auto models = fabricate_models(42);
  const core::OnlinePredictor predictor(*models);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = spec.used_frequencies();

  std::vector<core::BatchSweepItem> items;
  for (std::size_t i = 0; i < 16; ++i) {
    const CatalogEntry& app = catalog[i % catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grid});
  }

  // Warm the process-wide lazy state (kernel dispatch, thread pool) with a
  // throwaway workspace, then verify a freshly *reserved* workspace serves
  // its very first batch without allocating.
  {
    core::BatchSweepWorkspace warmup;
    predictor.predict_sweep_batch(items, spec, warmup);
  }
  core::BatchSweepWorkspace ws;
  predictor.reserve_batch_workspace(ws, items.size(), items.size() * grid.size());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  predictor.predict_sweep_batch(items, spec, ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "a reserve_batch_workspace()-sized workspace must serve its first batch "
         "without allocating";
}

TEST(ServeAlloc, SteadyStateServiceDrainIsAllocationFree) {
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  ServiceConfig config;
  config.max_batch = 32;
  SweepService service(holder, spec, config);
  const auto catalog = make_catalog(4, spec, 7);

  const auto submit_round = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)service.submit(std::move(r));  // slot allocation happens HERE, not in the drain
    }
  };

  // Warm: grows the queue rings, drain scratch, batch workspace, and the
  // snapshot cache to their steady-state sizes.
  for (int round = 0; round < 2; ++round) {
    submit_round();
    ASSERT_EQ(service.drain_once(), 32u);
  }

  // Steady state: the whole drain cycle — pop, coalescing scan, fused
  // batched sweep, result copies, completion handshakes, stats — runs
  // without a single heap allocation.
  submit_round();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const std::size_t served = service.drain_once();
  g_count_allocations.store(false);
  EXPECT_EQ(served, 32u);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "steady-state SweepService::drain_once must not touch the heap";
}

TEST(ServeAlloc, CachedDrainHitsAndInsertsAreAllocationFree) {
  // The sweep-curve cache is sized at construction: a steady-state drain
  // must stay heap-silent whether it is served from the cache (hits copy
  // out of the preallocated slab) or misses, computes, and inserts —
  // including evictions, which this undersized cache forces every round.
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  ServiceConfig config;
  config.max_batch = 32;
  config.cache.sets = 1;  // capacity 2 < 4 distinct apps: permanent pressure
  config.cache.ways = 2;
  SweepService service(holder, spec, config);
  const auto catalog = make_catalog(4, spec, 7);

  const auto submit_round = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)service.submit(std::move(r));
    }
  };

  for (int round = 0; round < 2; ++round) {
    submit_round();
    ASSERT_EQ(service.drain_once(), 32u);
  }

  submit_round();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const std::size_t served = service.drain_once();
  g_count_allocations.store(false);
  EXPECT_EQ(served, 32u);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "cache lookups, inserts, and evictions must not touch the heap";
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);

  // Same contract for the all-hit regime: a roomy cache warmed on the same
  // catalog serves every repeat drain purely from the slab.
  ServiceConfig roomy;
  roomy.max_batch = 32;
  SweepService cached(holder, spec, roomy);
  const auto submit_cached = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)cached.submit(std::move(r));
    }
  };
  for (int round = 0; round < 2; ++round) {
    submit_cached();
    ASSERT_EQ(cached.drain_once(), 32u);
  }
  submit_cached();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  ASSERT_EQ(cached.drain_once(), 32u);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "an all-hit cached drain must not touch the heap";
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace gpufreq::serve
