#include "gpufreq/core/sweep_cache.hpp"

#include <algorithm>
#include <bit>

#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::core {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over 64-bit words; cheap, deterministic, and only a filter — the
/// probe always finishes with a full key + grid bit compare.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SweepCurveCache::SweepCurveCache(const SweepCacheConfig& config) {
  if (config.sets == 0 || config.ways == 0 || config.max_rows == 0) return;  // disabled
  sets_ = round_up_pow2(config.sets);
  ways_ = config.ways;
  max_rows_ = config.max_rows;
  // The whole footprint is allocated here, once: steady-state lookups and
  // inserts only ever index into these two arrays.
  entries_.resize(sets_ * ways_);
  slab_.assign(sets_ * ways_ * kBands * max_rows_, 0.0);
}

SweepCurveCache::LookupResult SweepCurveCache::lookup(const sim::CounterSet& counters,
                                                      double measured_time_at_max_s,
                                                      std::span<const double> grid,
                                                      std::uint64_t epoch, std::uint64_t context,
                                                      Probe& probe) {
  GPUFREQ_HOT("gpufreq::core::SweepCurveCache::lookup");
  probe.cacheable = false;
  if (sets_ == 0 || grid.empty() || grid.size() > max_rows_) {
    ++stats_.misses;
    return {};
  }

  // Key: the exact bit patterns of the 12 counters and t_max, then the
  // model-identity words. The grid is keyed outside the fixed words —
  // hashed here, compared in full below.
  std::uint64_t* k = probe.key;
  k[0] = bits(counters.fp64_active);
  k[1] = bits(counters.fp32_active);
  k[2] = bits(counters.sm_app_clock);
  k[3] = bits(counters.dram_active);
  k[4] = bits(counters.gr_engine_active);
  k[5] = bits(counters.gpu_utilization);
  k[6] = bits(counters.power_usage);
  k[7] = bits(counters.sm_active);
  k[8] = bits(counters.sm_occupancy);
  k[9] = bits(counters.pcie_tx_bytes);
  k[10] = bits(counters.pcie_rx_bytes);
  k[11] = bits(counters.exec_time);
  k[12] = bits(measured_time_at_max_s);
  k[13] = epoch;
  k[14] = context;

  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < kKeyWords; ++i) h = fnv_word(h, k[i]);
  h = fnv_word(h, static_cast<std::uint64_t>(grid.size()));
  for (const double f : grid) h = fnv_word(h, bits(f));

  probe.hash = h;
  probe.set = static_cast<std::uint32_t>(h & (sets_ - 1));
  probe.cacheable = true;

  const std::size_t base = static_cast<std::size_t>(probe.set) * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid || e.rows != grid.size()) continue;
    bool match = true;
    for (std::size_t i = 0; i < kKeyWords; ++i) {
      if (e.key[i] != k[i]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const double* kgrid = slab_.data() + band_offset(base + w, 0);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (bits(kgrid[i]) != bits(grid[i])) {
        match = false;
        break;
      }
    }
    if (!match) continue;

    e.tick = ++tick_;
    ++stats_.hits;
    LookupResult r;
    r.hit = true;
    r.frequencies = {slab_.data() + band_offset(base + w, 1), e.rows};
    r.power_w = {slab_.data() + band_offset(base + w, 2), e.rows};
    r.time_s = {slab_.data() + band_offset(base + w, 3), e.rows};
    r.energy_j = {slab_.data() + band_offset(base + w, 4), e.rows};
    return r;
  }

  ++stats_.misses;
  return {};
}

void SweepCurveCache::insert(const Probe& probe, std::span<const double> grid,
                             std::span<const double> frequencies,
                             std::span<const double> power_w, std::span<const double> time_s,
                             std::span<const double> energy_j) {
  GPUFREQ_HOT("gpufreq::core::SweepCurveCache::insert");
  if (!probe.cacheable) return;
  const std::size_t rows = frequencies.size();
  if (rows == 0 || rows > max_rows_ || grid.size() != rows || power_w.size() != rows ||
      time_s.size() != rows || energy_j.size() != rows)
    return;

  // LRU victim within the probed set (an invalid way wins outright).
  const std::size_t base = static_cast<std::size_t>(probe.set) * ways_;
  std::size_t victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid) {
      victim = base + w;
      break;
    }
    if (e.tick < entries_[victim].tick) victim = base + w;
  }
  Entry& e = entries_[victim];
  if (e.valid) ++stats_.evictions;

  std::copy(probe.key, probe.key + kKeyWords, e.key);
  e.rows = static_cast<std::uint32_t>(rows);
  e.tick = ++tick_;
  e.valid = true;
  std::copy(grid.begin(), grid.end(), slab_.data() + band_offset(victim, 0));
  std::copy(frequencies.begin(), frequencies.end(), slab_.data() + band_offset(victim, 1));
  std::copy(power_w.begin(), power_w.end(), slab_.data() + band_offset(victim, 2));
  std::copy(time_s.begin(), time_s.end(), slab_.data() + band_offset(victim, 3));
  std::copy(energy_j.begin(), energy_j.end(), slab_.data() + band_offset(victim, 4));
}

void SweepCurveCache::clear() {
  for (Entry& e : entries_) e.valid = false;
}

}  // namespace gpufreq::core
