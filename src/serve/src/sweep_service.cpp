#include "gpufreq/serve/sweep_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/util/thread_pool.hpp"
#include "gpufreq/util/workspace.hpp"

namespace gpufreq::serve {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality of the computation inputs (NOT the scheduling tag):
/// two requests coalesce exactly when every input bit matches, which is
/// precisely the condition under which the fused sweep would produce
/// bit-identical rows for both.
bool same_computation(const detail::SweepSlot& a, const detail::SweepSlot& b) {
  if (bits(a.measured_time_at_max_s) != bits(b.measured_time_at_max_s)) return false;
  if (a.frequencies.size() != b.frequencies.size()) return false;
  const sim::CounterSet& x = a.counters;
  const sim::CounterSet& y = b.counters;
  if (bits(x.fp64_active) != bits(y.fp64_active) || bits(x.fp32_active) != bits(y.fp32_active) ||
      bits(x.sm_app_clock) != bits(y.sm_app_clock) || bits(x.dram_active) != bits(y.dram_active) ||
      bits(x.gr_engine_active) != bits(y.gr_engine_active) ||
      bits(x.gpu_utilization) != bits(y.gpu_utilization) ||
      bits(x.power_usage) != bits(y.power_usage) || bits(x.sm_active) != bits(y.sm_active) ||
      bits(x.sm_occupancy) != bits(y.sm_occupancy) ||
      bits(x.pcie_tx_bytes) != bits(y.pcie_tx_bytes) ||
      bits(x.pcie_rx_bytes) != bits(y.pcie_rx_bytes) || bits(x.exec_time) != bits(y.exec_time))
    return false;
  for (std::size_t i = 0; i < a.frequencies.size(); ++i)
    if (bits(a.frequencies[i]) != bits(b.frequencies[i])) return false;
  return true;
}

bool finite_positive(std::span<const double> grid) {
  return std::all_of(grid.begin(), grid.end(),
                     [](double f) { return std::isfinite(f) && f > 0.0; });
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void assign(std::vector<double>& dst, std::span<const double> src) {
  // Out-of-line so the (never-taken: outcomes are pre-reserved at submit)
  // growth path stays off the drain loop's static call graph.
  gpufreq::detail::workspace_assign(dst, src.data(), src.data() + src.size());
}

}  // namespace

SweepService::SweepService(const ModelSnapshotHolder& models, sim::GpuSpec spec,
                           ServiceConfig config)
    : models_(models),
      spec_(std::move(spec)),
      config_([&] {
        ServiceConfig c = std::move(config);
        GPUFREQ_REQUIRE(c.max_batch > 0, "SweepService: max_batch must be positive");
        if (c.frequencies.empty()) c.frequencies = spec_.used_frequencies();
        GPUFREQ_REQUIRE(!c.frequencies.empty(), "SweepService: empty default frequency grid");
        GPUFREQ_REQUIRE(finite_positive(c.frequencies),
                        "SweepService: grid frequencies must be finite and positive");
        return c;
      }()),
      cache_(config_.cache) {
  batch_.reserve(config_.max_batch);
  rep_.reserve(config_.max_batch);
  unique_.reserve(config_.max_batch);
  group_size_.reserve(config_.max_batch);
  probes_.reserve(config_.max_batch);
  hit_.reserve(config_.max_batch);
  miss_of_.reserve(config_.max_batch);
  miss_items_.reserve(config_.max_batch);
  shard_count_ = std::clamp<std::size_t>(num_threads(), 1, config_.max_batch);
  shard_ws_.resize(shard_count_);
}

SweepService::~SweepService() { stop(); }

SweepTicket SweepService::submit(SweepRequest request) {
  // Reject here what the drain's finite checks would otherwise throw on,
  // mid-batch, for every request sharing that batch.
  for (int m = 0; m <= static_cast<int>(sim::MetricId::kExecTime); ++m) {
    GPUFREQ_REQUIRE(std::isfinite(request.counters.value(static_cast<sim::MetricId>(m))),
                    "SweepService: counters must be finite");
  }
  GPUFREQ_REQUIRE(std::isfinite(request.measured_time_at_max_s) &&
                      request.measured_time_at_max_s > 0.0,
                  "SweepService: measured time must be finite and positive");
  GPUFREQ_REQUIRE(finite_positive(request.frequencies),
                  "SweepService: grid frequencies must be finite and positive");
  auto slot = std::make_shared<detail::SweepSlot>();
  slot->descriptor = request.descriptor;
  (void)slot->descriptor.priority();  // validates the band range
  slot->counters = request.counters;
  slot->measured_time_at_max_s = request.measured_time_at_max_s;
  slot->frequencies =
      request.frequencies.empty() ? config_.frequencies : std::move(request.frequencies);
  // Pre-size the outcome so the drain loop's result copies never allocate.
  const std::size_t rows = slot->frequencies.size();
  slot->outcome.frequencies.reserve(rows);
  slot->outcome.power_w.reserve(rows);
  slot->outcome.time_s.reserve(rows);
  slot->outcome.energy_j.reserve(rows);
  slot->enqueued_at = std::chrono::steady_clock::now();

  {
    MutexLock lock(mutex_);
    GPUFREQ_REQUIRE(!stopping_, "SweepService: submit after stop");
    queue_.push(slot);
    ++stats_.submitted;
  }
  cv_.notify_one();
  return SweepTicket(std::move(slot));
}

std::size_t SweepService::drain_once() {
  MutexLock drain(drain_mutex_);
  return drain_locked();
}

std::size_t SweepService::drain_locked() {
  GPUFREQ_HOT("gpufreq::serve::SweepService::drain_locked");
  batch_.clear();
  {
    MutexLock lock(mutex_);
    while (batch_.size() < config_.max_batch && !queue_.empty())
      gpufreq::detail::workspace_push(batch_, queue_.pop());
  }
  if (batch_.empty()) return 0;
  const auto picked_up = std::chrono::steady_clock::now();

  // Epoch-cached snapshot: one atomic load unless a publish() happened.
  const core::OnlinePredictor& predictor = snapshot_.predictor(models_);
  const std::uint64_t epoch = snapshot_.epoch();
  // Cache identity context: the active kernel table pins the backend (its
  // address changes iff set_kernel_backend swaps tables). Folded into
  // every key, so a backend change can never serve a curve computed by a
  // different backend's kernels.
  const std::uint64_t context =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&nn::kernels::active()));
  const bool use_cache = cache_.enabled();

  // Coalesce bit-identical requests into shared items, probing the curve
  // cache once per unique item. O(B * U) exact compares; B <= max_batch
  // keeps this far below the GEMM cost, and the scan is deterministic (no
  // hashing on the coalesce side). Hit curves are copied into the
  // representative's outcome immediately: a LookupResult view is only
  // valid until the next insert, and the post-compute inserts below may
  // evict the very entry that just hit.
  rep_.clear();
  unique_.clear();
  group_size_.clear();
  probes_.clear();
  hit_.clear();
  miss_of_.clear();
  miss_items_.clear();
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    detail::SweepSlot& slot = *batch_[i];
    std::size_t u = unique_.size();
    for (std::size_t j = 0; j < unique_.size(); ++j) {
      if (same_computation(*batch_[unique_[j]], slot)) {
        u = j;
        break;
      }
    }
    gpufreq::detail::workspace_push(rep_, static_cast<std::uint32_t>(u));
    if (u != unique_.size()) {
      ++group_size_[u];
      continue;
    }
    gpufreq::detail::workspace_push(unique_, static_cast<std::uint32_t>(i));
    gpufreq::detail::workspace_push(group_size_, std::uint32_t{1});
    gpufreq::detail::workspace_push(probes_, core::SweepCurveCache::Probe{});
    gpufreq::detail::workspace_push(hit_, std::uint8_t{0});
    gpufreq::detail::workspace_push(miss_of_, std::uint32_t{0});
    if (use_cache) {
      const core::SweepCurveCache::LookupResult r =
          cache_.lookup(slot.counters, slot.measured_time_at_max_s, slot.frequencies, epoch,
                        context, probes_.back());
      if (r.hit) {
        hit_.back() = 1;
        SweepOutcome& out = slot.outcome;
        assign(out.frequencies, r.frequencies);
        assign(out.power_w, r.power_w);
        assign(out.time_s, r.time_s);
        assign(out.energy_j, r.energy_j);
        continue;
      }
    }
    miss_of_.back() = static_cast<std::uint32_t>(miss_items_.size());
    gpufreq::detail::workspace_push(
        miss_items_, core::BatchSweepItem{.counters = &slot.counters,
                                          .measured_time_at_max_s = slot.measured_time_at_max_s,
                                          .frequencies = slot.frequencies});
  }

  // The fused sweep over everything the cache could not answer, sharded
  // across the deterministic pool: shard s computes miss items
  // [s*grain, (s+1)*grain) into its own workspace. Every per-item slice
  // is bitwise identical to an independent predict_from_features (the
  // batch contract is row-local), so any shard partition — including the
  // serial one-shard case — produces identical outcomes.
  const std::size_t n_miss = miss_items_.size();
  if (n_miss > 0) {
    const std::size_t shards = std::min(shard_count_, n_miss);
    shard_grain_ = (n_miss + shards - 1) / shards;
    const std::size_t grain = shard_grain_;
    parallel_for(0, n_miss, grain, [&](std::size_t lo, std::size_t hi) {
      predictor.predict_sweep_batch(
          std::span<const core::BatchSweepItem>(miss_items_.data() + lo, hi - lo), spec_,
          shard_ws_[lo / grain]);
    });
    if (use_cache) {
      for (std::size_t u = 0; u < unique_.size(); ++u) {
        if (hit_[u] != 0) continue;
        const std::size_t m = miss_of_[u];
        const core::BatchSweepWorkspace& sws = shard_ws_[m / grain];
        const std::size_t local = m % grain;
        cache_.insert(probes_[u], batch_[unique_[u]]->frequencies, sws.item_frequencies(local),
                      sws.item_power(local), sws.item_time(local), sws.item_energy(local));
      }
    }
  }

  const auto completed = std::chrono::steady_clock::now();
  const std::size_t served = batch_.size();
  // Account the batch BEFORE flipping any slot's done bit: a waiter that
  // observes its completion must already see it reflected in stats().
  {
    MutexLock lock(mutex_);
    stats_.completed += served;
    ++stats_.batches;
    stats_.unique_items += unique_.size();
    stats_.coalesced += served - unique_.size();
    stats_.max_batch_seen = std::max(stats_.max_batch_seen, served);
    stats_.model_epoch = epoch;
    stats_.cache_hits = cache_.stats().hits;
    stats_.cache_misses = cache_.stats().misses;
    stats_.cache_evictions = cache_.stats().evictions;
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    detail::SweepSlot& slot = *batch_[i];
    const std::size_t u = rep_[i];
    SweepOutcome& out = slot.outcome;
    if (hit_[u] != 0) {
      // The representative's outcome was filled at probe time; coalesced
      // members copy its (bitwise-equal) curves.
      if (i != unique_[u]) {
        const SweepOutcome& src = batch_[unique_[u]]->outcome;
        assign(out.frequencies, std::span<const double>(src.frequencies));
        assign(out.power_w, std::span<const double>(src.power_w));
        assign(out.time_s, std::span<const double>(src.time_s));
        assign(out.energy_j, std::span<const double>(src.energy_j));
      }
    } else {
      const std::size_t m = miss_of_[u];
      const core::BatchSweepWorkspace& sws = shard_ws_[m / shard_grain_];
      const std::size_t local = m % shard_grain_;
      assign(out.frequencies, sws.item_frequencies(local));
      assign(out.power_w, sws.item_power(local));
      assign(out.time_s, sws.item_time(local));
      assign(out.energy_j, sws.item_energy(local));
    }
    out.min_energy_frequency_mhz = out.frequencies[stats::argmin(out.energy_j)];
    out.queue_latency_s = seconds_between(slot.enqueued_at, picked_up);
    out.total_latency_s = seconds_between(slot.enqueued_at, completed);
    out.batch_size = batch_.size();
    out.model_epoch = epoch;
    out.coalesced = group_size_[u] > 1;
    out.cache_hit = hit_[u] != 0;
    {
      MutexLock lock(slot.mutex);
      slot.done = true;
    }
    slot.cv.notify_all();
  }

  batch_.clear();  // drop slot pins promptly (tickets keep theirs)
  return served;
}

void SweepService::start() {
  GPUFREQ_REQUIRE(!worker_.joinable(), "SweepService: already started");
  {
    MutexLock lock(mutex_);
    stopping_ = false;
  }
  worker_ = std::thread([this] { worker_loop(); });
}

void SweepService::stop() {
  if (!worker_.joinable()) return;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void SweepService::worker_loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      lock.wait(cv_, [this] {
        mutex_.assert_held();
        return stopping_ || !queue_.empty();
      });
      if (stopping_ && queue_.empty()) return;
    }
    drain_once();
  }
}

std::size_t SweepService::pending() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

ServiceStats SweepService::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace gpufreq::serve
