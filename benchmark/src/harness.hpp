// Shared pieces of the benchmark harness: options, timing, sample sets,
// the metric report, the span buffer, and the checks every workload runs.
// The harness measures the library only from outside: it times calls into
// public functions and reads what those functions return.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpufreq/core/models.hpp"
#include "gpufreq/core/profiles.hpp"
#include "gpufreq/core/selector.hpp"
#include "gpufreq/dcgm/collection.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command line of one run (see run.sh for the user-facing flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;    ///< measured time of one run (run_seconds in BENCHMARK.json)
  bool trace = false;       ///< per-layer run: the measured phase untraced, then traced
  bool smoke = false;       ///< 1 s per phase, no search, no repeats
  std::string results;      ///< results JSON path
  std::string trace_dir;    ///< where <workload>.json trace files go
};

// ---------------------------------------------------------------------------
// Fixed benchmark constants (documented in README.md).

/// Latency SLO on the p99 from the due time: a quarter of the paper's
/// 20 ms DCGM sampling interval.
inline constexpr double kSloMs = 5.0;
/// Algorithm-1 performance threshold used for every decision.
inline constexpr double kThreshold = 0.05;
/// Request category mix system / interactive / batch.
inline constexpr double kSystemFrac = 0.10;
inline constexpr double kInteractiveFrac = 0.30;
/// Verification sampling: the first request of each registry app plus
/// every 97th request (every 997th inside SLO-search probes).
inline constexpr std::size_t kVerifyEvery = 97;
inline constexpr std::size_t kProbeVerifyEvery = 997;
/// On traced runs, every 16th open-loop request (or closed-loop decision)
/// records spans.
inline constexpr std::size_t kTraceEvery = 16;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Committed model file, loaded read-only relative to the repo root.
inline constexpr const char* kModelPath = ".gpufreq_cache/paper_ga100_v1.gfpm";
/// The paper's GA100 node (bench/common.hpp uses the same seed): training
/// and accuracy evaluation run on it.
inline constexpr std::uint64_t kPaperNodeSeed = 0xA100'5EEDULL;

// ---------------------------------------------------------------------------

/// A set of timing samples. Stored as float, not double: seven significant
/// digits are plenty for latencies, and a fleet phase keeps several million
/// samples in the measured process, whose memory peak_rss_mb reports; float
/// halves that share. (gpufreq::stats::percentile takes doubles.)
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double x) { v_.push_back(static_cast<float>(x)); }
  std::size_t size() const { return v_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const { return percentile(0, v_.size(), p); }
  /// The same over samples [begin, end).
  double percentile(std::size_t begin, std::size_t end, double p) const;

 private:
  std::vector<float> v_;
};

/// Samples in the order they were taken, split into consecutive windows
/// of kWindowSamples. Latency percentiles are the median, across windows,
/// of each window's percentile. On a shared virtual host a process loses
/// its CPUs for stretches of milliseconds at random: a slower program
/// moves every window, such a stall only the few windows it falls in.
/// A window holds 1000 samples so that its p99 has ten beyond it.
class WindowedSamples {
 public:
  void reserve(std::size_t n) { all_.reserve(n); }
  void add(double x) { all_.add(x); }
  /// Median over full windows of the per-window percentile; the
  /// all-sample percentile when no window is full.
  double percentile(double p) const;
  /// Percentile over every sample regardless of window.
  double overall_percentile(double p) const { return all_.percentile(p); }
  std::size_t size() const { return all_.size(); }
  std::size_t windows() const { return all_.size() / kWindowSamples; }
  /// Print quartiles of the per-window p50 and p99 (host drift in a run).
  void print_windows(const char* label) const;

  static constexpr std::size_t kWindowSamples = 1000;

 private:
  std::vector<double> per_window(double p) const;

  Samples all_;
};

/// Ordered metric sink. Every metric carries its unit and sample count.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t n = 1;
  };
  void set(const std::string& name, double value, const std::string& unit, std::size_t n = 1);
  /// p50 and p99 of `s` as `<name>.p50` / `<name>.p99`.
  void set_p50_p99(const std::string& name, const Samples& s, const std::string& unit);
  /// decision_p50_ms / decision_p99_ms from windowed decision latencies.
  void set_decision_latency(const WindowedSamples& ms);
  const Metric& get(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
  std::map<std::string, std::size_t> index_;
};

/// Correctness ledger of one run.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t incomplete = 0;   ///< submitted but never completed, or refused
  std::uint64_t exceptions = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t verified = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  ///< FNV-1a over verified picks

  std::uint64_t failed() const { return incomplete + exceptions + mismatches; }
  void mix(std::uint64_t word);
};

// ---------------------------------------------------------------------------
// Spans: recorded from the harness around calls into each layer, kept in a
// preallocated buffer, written at exit in Chrome trace-event format.

class TraceBuffer {
 public:
  struct Span {
    std::uint32_t name = 0;    ///< index into names_
    std::int32_t parent = -1;  ///< index of the parent span (recorded first), -1 for a root
    std::uint64_t request = 0;
    double start_s = 0.0;      ///< relative to the buffer's origin
    double end_s = 0.0;
  };

  TraceBuffer(std::size_t capacity, Clock::time_point origin);

  /// Record a span; returns its index (or -1 when the buffer is full).
  std::int32_t add(const char* name, std::int32_t parent, std::uint64_t request, double start_s,
                   double end_s);
  std::int32_t add(const char* name, std::int32_t parent, std::uint64_t request,
                   Clock::time_point start, Clock::time_point end) {
    return add(name, parent, request, at(start), at(end));
  }
  double at(Clock::time_point t) const { return seconds_between(origin_, t); }

  /// Print each span name's self time (its duration minus the part its
  /// children cover) and its share of the root spans it sits under, and
  /// store the share as `<name>_share_pct`.
  void report_self_times(const std::string& workload, Report& report) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::size_t dropped_ = 0;
  Clock::time_point origin_;
};

// ---------------------------------------------------------------------------
// Checks and helpers shared by the workloads.

/// The online phase's single max-frequency execution, as
/// OnlinePredictor::predict acquires it: one run, eight samples.
gpufreq::dcgm::CollectionConfig max_freq_config(const gpufreq::sim::GpuSpec& spec,
                                                double input_scale);

/// The paper's Algorithm-1 decision: ED2P with a 5 % threshold.
gpufreq::core::Selection decide(const gpufreq::core::DvfsProfile& profile);

/// Bitwise equality of two curves.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Load the committed models read-only; train them (never storing) when
/// the file is missing or unreadable.
gpufreq::core::PowerTimeModels load_or_train_models();


/// Mean power / time accuracy (100 - MAPE) of `models` over the six real
/// applications on the paper's node; timed into core.evaluate_s.
void report_accuracy(const gpufreq::core::PowerTimeModels& models, Report& report);

/// Analytic MFLOP of one sweep of `rows` configurations through both
/// models, and the achieved rate at the measured predict p50.
void report_sweep_rate(const gpufreq::core::PowerTimeModels& models, std::size_t rows,
                       Report& report);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// Pin the calling thread's timer slack to 1 ns so paced sleeps wake on time.
void tighten_timer_slack();

/// Metrics of layers a workload does not exercise (serve and the curve
/// cache; the offline phase), reported as 0 so every workload reports the
/// same per-layer set.
void zero_serve_layers(Report& report);
void zero_offline_layers(Report& report);

// ---------------------------------------------------------------------------
// Workload entry points. Each fills `report` and `ledger`; a return value
// of false means the run is invalid (not a program failure).

bool run_fleet(const Options& opt, bool repeat, Report& report, Ledger& ledger);
bool run_advisor(const Options& opt, Report& report, Ledger& ledger);
bool run_offline(const Options& opt, Report& report, Ledger& ledger);

}  // namespace bench
