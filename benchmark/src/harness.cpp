#include "harness.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "gpufreq/core/evaluation.hpp"
#include "gpufreq/core/model_cache.hpp"
#include "gpufreq/core/objective.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/sim/gpu_device.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/workloads/registry.hpp"

namespace bench {

using namespace gpufreq;

double Samples::percentile(std::size_t begin, std::size_t end, double p) const {
  if (begin >= end) return 0.0;
  std::vector<float> s(v_.begin() + static_cast<std::ptrdiff_t>(begin),
                       v_.begin() + static_cast<std::ptrdiff_t>(end));
  const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(lo), s.end());
  const double a = static_cast<double>(s[lo]);
  if (lo + 1 >= s.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(s.begin() + static_cast<std::ptrdiff_t>(lo) + 1, s.end()));
  return a + (rank - static_cast<double>(lo)) * (b - a);
}

std::vector<double> WindowedSamples::per_window(double p) const {
  std::vector<double> out;
  for (std::size_t w = 0; w < windows(); ++w)
    out.push_back(all_.percentile(w * kWindowSamples, (w + 1) * kWindowSamples, p));
  return out;
}

double WindowedSamples::percentile(double p) const {
  const std::vector<double> v = per_window(p);
  return v.empty() ? overall_percentile(p) : stats::median(v);
}

void WindowedSamples::print_windows(const char* label) const {
  if (windows() < 2) return;
  for (double p : {50.0, 99.0}) {
    const std::vector<double> v = per_window(p);
    std::printf("    %-10s %zu windows, p%.0f ms min %.4f q1 %.4f median %.4f q3 %.4f max %.4f\n",
                label, v.size(), p, stats::min(v), stats::percentile(v, 25.0),
                stats::median(v), stats::percentile(v, 75.0), stats::max(v));
  }
}

void Report::set(const std::string& name, double value, const std::string& unit, std::size_t n) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second].second = {value, unit, n};
    return;
  }
  index_.emplace(name, items_.size());
  items_.push_back({name, {value, unit, n}});
}

void Report::set_p50_p99(const std::string& name, const Samples& s, const std::string& unit) {
  set(name + ".p50", s.percentile(50.0), unit, s.size());
  set(name + ".p99", s.percentile(99.0), unit, s.size());
}

void Report::set_decision_latency(const WindowedSamples& ms) {
  set("decision_p50_ms", ms.percentile(50.0), "ms", ms.size());
  set("decision_p99_ms", ms.percentile(99.0), "ms", ms.size());
  set("decision_ms.windows", static_cast<double>(ms.windows()), "count");
  set("decision_ms.all_p50", ms.overall_percentile(50.0), "ms", ms.size());
  set("decision_ms.all_p99", ms.overall_percentile(99.0), "ms", ms.size());
}

const Report::Metric& Report::get(const std::string& name) const {
  return items_.at(index_.at(name)).second;
}

void Ledger::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xFFu;
    digest *= 0x100000001b3ULL;
  }
}

// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(std::size_t capacity, Clock::time_point origin) : origin_(origin) {
  spans_.reserve(capacity);
}

std::int32_t TraceBuffer::add(const char* name, std::int32_t parent, std::uint64_t request,
                              double start_s, double end_s) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  std::uint32_t id = 0;
  while (id < names_.size() && names_[id] != name) ++id;
  if (id == names_.size()) names_.emplace_back(name);
  spans_.push_back({id, parent, request, start_s, end_s});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void TraceBuffer::report_self_times(const std::string& workload, Report& report) const {
  // Parents are recorded before their children, so one forward pass finds
  // every span's root and the time its children cover.
  const std::size_t n = spans_.size();
  std::vector<double> child_s(n, 0.0);
  std::vector<std::size_t> root(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      root[i] = i;
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    root[i] = root[p];
    child_s[p] += s.end_s - s.start_s;
  }
  // Self time per (root name, span name), and total root time per root name.
  const std::size_t k = names_.size();
  std::vector<double> self(k * k, 0.0);
  std::vector<double> root_s(k, 0.0);
  std::vector<std::size_t> roots(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::uint32_t r = spans_[root[i]].name;
    self[r * k + s.name] += (s.end_s - s.start_s) - child_s[i];
    if (s.parent < 0) {
      root_s[r] += s.end_s - s.start_s;
      ++roots[r];
    }
  }
  std::printf("\nper-layer self time, %s (%zu spans, %zu dropped)\n", workload.c_str(), n,
              dropped_);
  for (std::size_t r = 0; r < k; ++r) {
    if (roots[r] == 0) continue;
    std::printf("  under %zu '%s' spans (mean %.3f us):\n", roots[r], names_[r].c_str(),
                1e6 * root_s[r] / static_cast<double>(roots[r]));
    std::printf("    %-24s %14s %12s %9s\n", "span", "self_ms_total", "us_per_root", "share_%");
    for (std::size_t s = 0; s < k; ++s) {
      const double self_s = self[r * k + s];
      if (self_s == 0.0 && s != r) continue;
      const double share = 100.0 * self_s / root_s[r];
      std::printf("    %-24s %14.3f %12.3f %9.3f\n", names_[s].c_str(), self_s * 1e3,
                  1e6 * self_s / static_cast<double>(roots[r]), share);
      report.set(names_[s] + "_share_pct", share, "%", roots[r]);
    }
  }
}

void TraceBuffer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw IoError("trace: cannot open '" + path + "' for writing");
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"request\":%llu,\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.request), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, static_cast<unsigned long long>(s.request), i,
                 s.parent);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw IoError("trace: failed writing '" + path + "'");
}

// ---------------------------------------------------------------------------

dcgm::CollectionConfig max_freq_config(const sim::GpuSpec& spec, double input_scale) {
  dcgm::CollectionConfig cc;
  cc.frequencies_mhz = {spec.default_core_mhz};
  cc.runs = 1;
  cc.samples_per_run = 8;
  cc.input_scale = input_scale;
  return cc;
}

core::Selection decide(const core::DvfsProfile& profile) {
  static const core::Objective ed2p = core::Objective::ed2p();
  return core::select_optimal_frequency(profile, ed2p, kThreshold);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

core::PowerTimeModels load_or_train_models() {
  // A fallback training result is kept for the later set-up repetitions of
  // the same run; it is never written to disk.
  static std::optional<core::PowerTimeModels> trained;
  if (trained) return *trained;
  try {
    return core::load_models(kModelPath);
  } catch (const Error& e) {
    std::fprintf(stderr, "[benchmark] cannot load %s (%s); training the paper models instead\n",
                 kModelPath, e.what());
  }
  sim::GpuDevice device(sim::GpuSpec::ga100(), kPaperNodeSeed);
  trained = core::OfflineTrainer(core::OfflineConfig{}).train(device, workloads::training_set());
  return *trained;
}

void report_accuracy(const core::PowerTimeModels& models, Report& report) {
  const auto t0 = Clock::now();
  sim::GpuDevice device(sim::GpuSpec::ga100(), kPaperNodeSeed);
  const std::vector<core::AppEvaluation> evals =
      core::evaluate_suite(models, device, workloads::evaluation_set(), {}, 3, kThreshold);
  double power = 0.0;
  double time = 0.0;
  for (const core::AppEvaluation& e : evals) {
    power += e.power_accuracy_pct;
    time += e.time_accuracy_pct;
  }
  const auto n = static_cast<double>(evals.size());
  report.set("core.evaluate_s", seconds_between(t0, Clock::now()), "s");
  report.set("power_accuracy_pct", power / n, "%", evals.size());
  report.set("time_accuracy_pct", time / n, "%", evals.size());
}

void report_sweep_rate(const core::PowerTimeModels& models, std::size_t rows, Report& report) {
  double macs = 0.0;
  for (const core::DnnModel* m : {&models.power, &models.time}) {
    const nn::Network& net = m->bundle().network;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      const nn::Matrix& w = net.layer(i).weights();
      macs += static_cast<double>(w.rows() * w.cols());
    }
  }
  const double mflop = 2.0 * macs * static_cast<double>(rows) / 1e6;
  report.set("nn.sweep_mflop", mflop, "MFLOP");
  report.set("nn.sweep_gflops", mflop / 1e3 / (report.get("core.predict_us.p50").value * 1e-6),
             "GFLOP/s");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void zero_serve_layers(Report& report) {
  for (const char* name : {"serve.submit_us.p50", "serve.submit_us.p99"})
    report.set(name, 0.0, "us", 0);
  for (const char* name :
       {"serve.queue_ms.p50", "serve.queue_ms.p99", "serve.queue_ms.p99.system",
        "serve.queue_ms.p99.interactive", "serve.queue_ms.p99.batch", "serve.service_ms.p50",
        "serve.service_ms.p99"})
    report.set(name, 0.0, "ms", 0);
  report.set("serve.batch_size.mean", 0.0, "count", 0);
  report.set("serve.drains_per_s", 0.0, "1/s", 0);
  report.set("serve.coalesced_frac", 0.0, "ratio", 0);
  report.set("serve.backlog.max", 0.0, "count", 0);
  report.set("core.cache_hit_rate", 0.0, "ratio", 0);
  report.set("core.cache_evictions_per_s", 0.0, "1/s", 0);
  report.set("core.gemm_items_per_s", 0.0, "1/s", 0);
}

void zero_offline_layers(Report& report) {
  for (const char* name : {"train_s", "dcgm.profile_suite_s", "core.build_dataset_s",
                           "features.rank_s", "nn.train_power_s", "nn.train_time_s"})
    report.set(name, 0.0, "s", 0);
  for (const char* name : {"nn.epoch_ms.power", "nn.epoch_ms.time"})
    report.set(name, 0.0, "ms", 0);
  report.set("nn.train_rows_per_s", 0.0, "1/s", 0);
}

}  // namespace bench
