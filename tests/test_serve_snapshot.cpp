// Epoch/snapshot model holder: publish() swaps models atomically, readers
// pin snapshots through a per-thread cache whose steady-state acquire is a
// single atomic load. The concurrency test runs full sweeps on reader
// threads while the main thread hot-swaps models — run under TSan by the
// static-analysis gate (stage 7) and the CI sanitizer job.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/snapshot.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/error.hpp"

namespace gpufreq::serve {
namespace {

TEST(ServeSnapshot, RequiresTrainedModels) {
  EXPECT_THROW(ModelSnapshotHolder(nullptr), InvalidArgument);
  EXPECT_THROW(ModelSnapshotHolder(std::make_shared<core::PowerTimeModels>()), InvalidArgument);
  ModelSnapshotHolder holder(fabricate_models(1));
  EXPECT_THROW(holder.publish(nullptr), InvalidArgument);
}

TEST(ServeSnapshot, PublishBumpsEpochAndSwapsSnapshot) {
  const auto first = fabricate_models(1);
  const auto second = fabricate_models(2);
  ModelSnapshotHolder holder(first);
  EXPECT_EQ(holder.epoch(), 0u);
  EXPECT_EQ(holder.snapshot().get(), first.get());

  holder.publish(second);
  EXPECT_EQ(holder.epoch(), 1u);
  EXPECT_EQ(holder.snapshot().get(), second.get());
}

TEST(ServeSnapshot, CacheRefreshesOnEpochChangeOnly) {
  ModelSnapshotHolder holder(fabricate_models(1));
  SnapshotCache cache;
  const core::OnlinePredictor* p1 = &cache.predictor(holder);
  EXPECT_EQ(cache.epoch(), 0u);
  // Steady state: same predictor object, no rebuild.
  EXPECT_EQ(&cache.predictor(holder), p1);

  holder.publish(fabricate_models(2));
  const core::OnlinePredictor& p2 = cache.predictor(holder);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(&cache.models(), holder.snapshot().get());
  (void)p2;
}

TEST(ServeSnapshot, PinnedSnapshotOutlivesPublish) {
  const auto first = fabricate_models(1);
  ModelSnapshotHolder holder(first);
  SnapshotCache cache;
  (void)cache.predictor(holder);

  // The holder moves on; the cache's pinned snapshot must stay valid and
  // keep answering with the OLD models until the next acquire.
  holder.publish(fabricate_models(2));
  EXPECT_EQ(&cache.models(), first.get());
  EXPECT_EQ(cache.epoch(), 0u);
  EXPECT_TRUE(cache.models().power.trained());
}

TEST(ServeSnapshot, ConcurrentReadersSurviveHotSwaps) {
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 11);
  const std::vector<double> grid = spec.used_frequencies();
  ModelSnapshotHolder holder(fabricate_models(100));

  constexpr int kReaders = 4;
  constexpr int kSweepsPerReader = 64;
  constexpr int kSwaps = 32;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotCache cache;
      core::BatchSweepWorkspace ws;
      for (int i = 0; i < kSweepsPerReader; ++i) {
        const core::OnlinePredictor& predictor = cache.predictor(holder);
        const CatalogEntry& app = catalog[static_cast<std::size_t>((r + i) % 4)];
        const core::BatchSweepItem item{.counters = &app.counters,
                                        .measured_time_at_max_s = app.measured_time_at_max_s,
                                        .frequencies = grid};
        predictor.predict_sweep_batch({&item, 1}, spec, ws);
        for (const double e : ws.energy_j) ASSERT_GT(e, 0.0);
      }
    });
  }
  for (int s = 0; s < kSwaps; ++s) holder.publish(fabricate_models(200 + static_cast<std::uint64_t>(s)));
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(holder.epoch(), static_cast<std::uint64_t>(kSwaps));
  SnapshotCache cache;
  (void)cache.predictor(holder);
  EXPECT_EQ(cache.epoch(), static_cast<std::uint64_t>(kSwaps));
}

}  // namespace
}  // namespace gpufreq::serve
