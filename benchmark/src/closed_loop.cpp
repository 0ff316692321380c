// Closed-loop workloads: one client makes decisions back to back —
// profile_at_max on a seeded (app, input scale, node), then
// predict_from_features, then the Algorithm-1 pick. `advisor` decides with
// the committed models; `offline-train` first runs the paper's offline
// phase (suite profiling, dataset, KSG-MI ranking, both DNNs) three times
// as its set-up and decides with the models it trained.
#include <bit>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "gpufreq/core/dataset.hpp"
#include "gpufreq/core/evaluation.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/dcgm/collection.hpp"
#include "gpufreq/features/ranking.hpp"
#include "gpufreq/sim/gpu_device.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/workloads/registry.hpp"
#include "harness.hpp"

namespace bench {

using namespace gpufreq;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kScales = 10;
/// Every loop completes at least one pass over this many seeded decisions,
/// and the decision digest covers that pass, so the digest does not
/// depend on how fast the host is.
constexpr std::size_t kDecisionPass = 4096;
/// Offline phases per offline-train run (its set-up); train_s and setup_s
/// are their medians.
constexpr int kOfflineRepeats = 3;

/// The seeded decisions a closed-loop client cycles through. Nodes and
/// sessions live here so the loop itself only calls into the library.
struct DecisionInputs {
  struct Item {
    std::uint32_t session = 0;  ///< node * kScales + scale
    std::uint16_t app = 0;
  };
  std::vector<workloads::WorkloadDescriptor> apps;
  std::vector<sim::GpuDevice> nodes;
  std::vector<double> scales;
  std::vector<dcgm::ProfilingSession> sessions;
  std::vector<Item> items;
  std::vector<double> grid;
  sim::GpuSpec spec = sim::GpuSpec::ga100();
};

std::unique_ptr<DecisionInputs> make_decision_inputs(
    std::uint64_t seed, std::vector<workloads::WorkloadDescriptor> apps) {
  auto in = std::make_unique<DecisionInputs>();
  in->apps = std::move(apps);
  in->grid = in->spec.used_frequencies();
  Rng rng(Rng::hash_combine(seed, 0xAD7150));
  for (std::size_t i = 0; i < kScales; ++i) in->scales.push_back(rng.uniform(0.5, 2.0));
  in->nodes.reserve(kNodes);  // sessions hold references into this vector
  for (std::size_t n = 0; n < kNodes; ++n)
    in->nodes.emplace_back(in->spec, Rng::hash_combine(seed, 0x10DE0000ULL + n));
  in->sessions.reserve(kNodes * kScales);
  for (sim::GpuDevice& node : in->nodes)
    for (double scale : in->scales) in->sessions.emplace_back(node, max_freq_config(in->spec, scale));
  in->items.resize(kDecisionPass);
  for (DecisionInputs::Item& item : in->items) {
    item.session = static_cast<std::uint32_t>(rng.uniform_index(in->sessions.size()));
    item.app = static_cast<std::uint16_t>(rng.uniform_index(in->apps.size()));
  }
  return in;
}

struct DecisionCheck {
  std::size_t k = 0;
  DecisionInputs::Item item;
  core::DvfsProfile profile;
  core::Selection pick;
};

struct Loop {
  std::size_t decisions = 0;
  double wall_s = 0.0;
  WindowedSamples decision_ms;
  Samples profile_us, predict_us, select_us, gap_ms;
  std::vector<DecisionCheck> checks;
};

/// One client, back to back, for at least `seconds` and at least one pass
/// over the inputs.
Loop run_loop(const core::OnlinePredictor& predictor, const DecisionInputs& in, double seconds,
              TraceBuffer* trace) {
  Loop loop;
  std::vector<bool> app_seen(in.apps.size(), false);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  auto prev_end = start;
  for (std::size_t k = 0;; ++k) {
    const DecisionInputs::Item& item = in.items[k % in.items.size()];
    const workloads::WorkloadDescriptor& app = in.apps[item.app];
    const auto t0 = Clock::now();
    const dcgm::CollectionResult r = in.sessions[item.session].profile_at_max(app);
    const auto t1 = Clock::now();
    GPUFREQ_REQUIRE(!r.runs.empty(), "benchmark: empty max-frequency run");
    core::DvfsProfile profile = predictor.predict_from_features(
        r.runs.front().mean_counters, r.runs.front().exec_time_s, in.spec, in.grid, app.name);
    const auto t2 = Clock::now();
    const core::Selection pick = decide(profile);
    const auto t3 = Clock::now();

    loop.gap_ms.add(seconds_between(prev_end, t0) * 1e3);
    loop.decision_ms.add(seconds_between(t0, t3) * 1e3);
    loop.profile_us.add(seconds_between(t0, t1) * 1e6);
    loop.predict_us.add(seconds_between(t1, t2) * 1e6);
    loop.select_us.add(seconds_between(t2, t3) * 1e6);
    if (trace != nullptr && k % kTraceEvery == 0) {
      const std::int32_t root = trace->add("decision", -1, k, t0, t3);
      if (root >= 0) {
        trace->add("dcgm.profile_at_max", root, k, t0, t1);
        trace->add("core.predict", root, k, t1, t2);
        trace->add("core.select", root, k, t2, t3);
      }
    }
    bool check = k % kVerifyEvery == 0;
    if (!app_seen[item.app]) {
      app_seen[item.app] = true;
      check = true;
    }
    if (check) loop.checks.push_back({k, item, std::move(profile), pick});
    prev_end = Clock::now();
    if (prev_end >= stop && k + 1 >= in.items.size()) {
      loop.decisions = k + 1;
      break;
    }
  }
  loop.wall_s = seconds_between(start, prev_end);
  return loop;
}

/// Recompute each sampled decision through OnlinePredictor::predict (its
/// own max-frequency acquisition on the same node) and require bitwise
/// equal curves and the same pick. The first pass feeds the digest.
void verify(const core::PowerTimeModels& models, DecisionInputs& in, const Loop& loop,
            bool digest, Ledger& ledger) {
  const core::OnlinePredictor reference(models, nn::default_precision());
  for (const DecisionCheck& c : loop.checks) {
    sim::GpuDevice& node = in.nodes[c.item.session / kScales];
    const double scale = in.scales[c.item.session % kScales];
    const core::DvfsProfile want =
        reference.predict(node, in.apps[c.item.app], in.grid, /*runs=*/1, scale);
    const core::Selection want_pick = decide(want);
    const bool same = same_bits(c.profile.frequency_mhz, want.frequency_mhz) &&
                      same_bits(c.profile.power_w, want.power_w) &&
                      same_bits(c.profile.time_s, want.time_s) &&
                      same_bits(c.profile.energy_j, want.energy_j) &&
                      c.pick.index == want_pick.index;
    ++ledger.verified;
    if (!same) {
      ++ledger.mismatches;
      std::fprintf(stderr, "[benchmark] MISMATCH decision %zu (%s)\n", c.k,
                   in.apps[c.item.app].name.c_str());
    }
    if (digest && c.k < in.items.size()) {
      ledger.mix(c.k);
      ledger.mix(std::bit_cast<std::uint64_t>(c.pick.frequency_mhz));
    }
  }
}

void print_loop(const char* label, const Loop& loop) {
  std::printf("  %-10s %8zu decisions in %6.2f s  p50 %8.4f ms  p99 %8.4f ms\n", label,
              loop.decisions, loop.wall_s, loop.decision_ms.percentile(50.0),
              loop.decision_ms.percentile(99.0));
  loop.decision_ms.print_windows(label);
  std::fflush(stdout);
}

/// Span capacity of a traced loop: far above what one core decides in the
/// run's time, at one traced decision in kTraceEvery with four spans each.
std::size_t trace_capacity(const Options& opt) {
  return static_cast<std::size_t>(opt.seconds * 50'000.0) / kTraceEvery * 4 + 1024;
}

/// The decision phase shared by both workloads: the closed loop for
/// `loop_s` (and on traced runs a second loop that records spans into
/// `trace`), its verification and its metrics.
void measure(const Options& opt, const core::PowerTimeModels& models, DecisionInputs& in,
             double loop_s, TraceBuffer* trace, Report& report, Ledger& ledger) {
  // Peak memory before the loop: set-up has warmed every workspace, and the
  // harness's per-decision samples, which grow with the decision rate, are
  // not the program's memory.
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const core::OnlinePredictor predictor(models);
  const Loop loop = run_loop(predictor, in, loop_s, nullptr);
  print_loop("decide", loop);
  ledger.attempted += loop.decisions;
  verify(models, in, loop, /*digest=*/true, ledger);

  report.set_decision_latency(loop.decision_ms);
  const double rate = static_cast<double>(loop.decisions) / loop.wall_s;
  report.set("decisions_per_s", rate, "1/s", loop.decisions);
  // One client cannot go faster than its own decision rate, so that rate
  // is the highest one meeting the SLO — unless its p99 misses the SLO.
  const bool meets_slo = loop.decision_ms.overall_percentile(99.0) <= kSloMs;
  if (!meets_slo)
    std::printf("  closed-loop p99 %.3f ms misses the %.1f ms SLO: max_rps_at_slo is 0\n",
                loop.decision_ms.overall_percentile(99.0), kSloMs);
  report.set("max_rps_at_slo", meets_slo ? rate : 0.0, "req/s", loop.decisions);
  report.set_p50_p99("dcgm.profile_at_max_us", loop.profile_us, "us");
  report.set_p50_p99("core.predict_us", loop.predict_us, "us");
  report.set("core.select_us.p50", loop.select_us.percentile(50.0), "us", loop.select_us.size());
  report.set_p50_p99("harness.late_ms", loop.gap_ms, "ms");

  if (trace != nullptr) {
    const Loop traced = run_loop(predictor, in, loop_s, trace);
    print_loop("traced", traced);
    ledger.attempted += traced.decisions;
    verify(models, in, traced, /*digest=*/false, ledger);
    const double base = loop.decision_ms.percentile(50.0);
    report.set("harness.trace_overhead_pct",
               100.0 * (traced.decision_ms.percentile(50.0) - base) / base, "%", traced.decisions);
    trace->report_self_times(opt.workload, report);
    trace->write_chrome_json(opt.trace_dir + "/" + opt.workload + ".json");
  }
  report.set("harness.verified", static_cast<double>(ledger.verified), "count");
  report.set("harness.mismatches", static_cast<double>(ledger.mismatches), "count");
  report_sweep_rate(models, in.grid.size(), report);
  report_accuracy(models, report);
}

}  // namespace

bool run_advisor(const Options& opt, Report& report, Ledger& ledger) {
  // Set-up, repeated (the last is kept): load the committed models, build
  // the seeded decisions, and make one untimed pass over them so the timed
  // loop finds warm workspaces and a running thread pool.
  const int setups = opt.smoke || opt.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s, load_s, inputs_s, warmup_s;
  std::unique_ptr<core::PowerTimeModels> models;
  std::unique_ptr<DecisionInputs> in;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = Clock::now();
    models = std::make_unique<core::PowerTimeModels>(load_or_train_models());
    const auto t1 = Clock::now();
    in = make_decision_inputs(opt.seed, workloads::all());
    const auto t2 = Clock::now();
    (void)run_loop(core::OnlinePredictor(*models), *in, 0.0, nullptr);
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    load_s.push_back(seconds_between(t0, t1));
    inputs_s.push_back(seconds_between(t1, t2));
    warmup_s.push_back(seconds_between(t2, t3));
  }
  report.set("setup_s", stats::median(setup_s), "s", setup_s.size());
  report.set("setup.model_load_s", stats::median(load_s), "s", load_s.size());
  report.set("setup.inputs_s", stats::median(inputs_s), "s", inputs_s.size());
  report.set("setup.warmup_s", stats::median(warmup_s), "s", warmup_s.size());

  std::optional<TraceBuffer> trace;
  if (opt.trace) trace.emplace(trace_capacity(opt), Clock::now());
  const double loop_s = opt.smoke ? 1.0 : opt.trace ? opt.seconds / 2 : opt.seconds;
  measure(opt, *models, *in, loop_s, trace ? &*trace : nullptr, report, ledger);
  zero_serve_layers(report);
  zero_offline_layers(report);
  return true;
}

// ---------------------------------------------------------------------------

namespace {

/// Everything one offline phase produces that the next one must match.
struct OfflineOutcome {
  std::vector<features::FeatureScore> power_rank, time_rank;
  std::vector<core::AppEvaluation> evals;
};

bool same_outcome(const OfflineOutcome& a, const OfflineOutcome& b) {
  const auto same_rank = [](const std::vector<features::FeatureScore>& x,
                            const std::vector<features::FeatureScore>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].feature != y[i].feature ||
          std::bit_cast<std::uint64_t>(x[i].mi) != std::bit_cast<std::uint64_t>(y[i].mi))
        return false;
    return true;
  };
  if (!same_rank(a.power_rank, b.power_rank) || !same_rank(a.time_rank, b.time_rank)) return false;
  if (a.evals.size() != b.evals.size()) return false;
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    const core::DvfsProfile& x = a.evals[i].predicted;
    const core::DvfsProfile& y = b.evals[i].predicted;
    if (!same_bits(x.power_w, y.power_w) || !same_bits(x.time_s, y.time_s) ||
        !same_bits(x.energy_j, y.energy_j) || a.evals[i].p_ed2p.index != b.evals[i].p_ed2p.index)
      return false;
  }
  return true;
}

/// The paper's candidate features (§4.2.1); the predictands are
/// power_usage and exec_time. fp_active merges the FP64 and FP32 pipes.
const std::vector<std::string>& rank_candidates() {
  static const std::vector<std::string> names = {
      "fp_active",       "sm_app_clock", "dram_active",  "gr_engine_active", "gpu_utilization",
      "sm_active",       "sm_occupancy", "pcie_tx_bytes", "pcie_rx_bytes",   "fp64_active"};
  return names;
}

struct OfflineTimes {
  double total_s = 0.0, profile_s = 0.0, dataset_s = 0.0, rank_s = 0.0, power_s = 0.0,
         time_s = 0.0;
  std::size_t rows = 0;
  std::size_t power_epochs = 0, time_epochs = 0;
};

/// One offline phase on the paper's node: profile the 21-workload suite at
/// every configuration, build the dataset, rank the candidate features on
/// the DGEMM + STREAM samples (as the paper does), and train both models.
core::PowerTimeModels train_once(OfflineTimes& t, OfflineOutcome& out, TraceBuffer* trace) {
  const core::OfflineConfig cfg;
  sim::GpuDevice device(sim::GpuSpec::ga100(), kPaperNodeSeed);
  const auto t0 = Clock::now();
  const dcgm::ProfilingSession session(device, cfg.collection);
  const dcgm::CollectionResult result = session.profile_suite(workloads::training_set());
  const auto t1 = Clock::now();
  const core::Dataset dataset = core::build_dataset(result, device.spec(), cfg.features);
  const auto t2 = Clock::now();
  features::FeatureRanker ranker;
  {
    const std::string& dgemm = workloads::find("dgemm").name;
    const std::string& stream = workloads::find("stream").name;
    std::vector<std::vector<double>> columns(rank_candidates().size());
    std::vector<double> power, time;
    for (const dcgm::MetricRow& s : result.samples) {
      if (s.workload != dgemm && s.workload != stream) continue;
      for (std::size_t i = 0; i < columns.size(); ++i)
        columns[i].push_back(s.counters.value(rank_candidates()[i]));
      power.push_back(s.counters.power_usage);
      time.push_back(s.counters.exec_time);
    }
    for (std::size_t i = 0; i < columns.size(); ++i)
      ranker.add_feature(rank_candidates()[i], std::move(columns[i]));
    out.power_rank = ranker.rank(power);
    out.time_rank = ranker.rank(time);
  }
  const auto t3 = Clock::now();
  core::PowerTimeModels models;
  models.features = cfg.features;
  models.power_history = models.power.train(dataset, core::Target::kPower, cfg.power_model);
  const auto t4 = Clock::now();
  models.time_history = models.time.train(dataset, core::Target::kTime, cfg.time_model);
  const auto t5 = Clock::now();

  t = {seconds_between(t0, t5),
       seconds_between(t0, t1),
       seconds_between(t1, t2),
       seconds_between(t2, t3),
       seconds_between(t3, t4),
       seconds_between(t4, t5),
       dataset.size(),
       models.power_history.epochs_run,
       models.time_history.epochs_run};
  if (trace != nullptr) {
    const std::int32_t root = trace->add("offline", -1, 0, t0, t5);
    trace->add("dcgm.profile_suite", root, 0, t0, t1);
    trace->add("core.build_dataset", root, 0, t1, t2);
    trace->add("features.rank", root, 0, t2, t3);
    trace->add("nn.train_power", root, 0, t3, t4);
    trace->add("nn.train_time", root, 0, t4, t5);
  }
  std::printf("  offline    train %.3f s: profile %.3f, dataset %.3f, rank %.3f, power %.3f, "
              "time %.3f\n",
              t.total_s, t.profile_s, t.dataset_s, t.rank_s, t.power_s, t.time_s);
  std::fflush(stdout);
  return models;
}

}  // namespace

bool run_offline(const Options& opt, Report& report, Ledger& ledger) {
  // Set-up is the paper's offline phase, repeated (the last models are
  // kept), then the seeded decisions over the six real applications and a
  // warm-up pass with the fresh models. Every repeat must rank the features
  // and predict the six applications bit for bit like the first.
  const int setups = opt.smoke || opt.trace ? 1 : kOfflineRepeats;
  std::optional<TraceBuffer> trace;
  if (opt.trace) trace.emplace(trace_capacity(opt), Clock::now());
  std::vector<double> setup_s, inputs_s, warmup_s;
  std::vector<OfflineTimes> times;
  std::optional<OfflineOutcome> first;
  std::unique_ptr<core::PowerTimeModels> models;
  std::unique_ptr<DecisionInputs> in;
  for (int i = 0; i < setups; ++i) {
    OfflineTimes t;
    OfflineOutcome out;
    const auto t0 = Clock::now();
    models =
        std::make_unique<core::PowerTimeModels>(train_once(t, out, trace ? &*trace : nullptr));
    const auto t1 = Clock::now();
    in = make_decision_inputs(opt.seed, workloads::evaluation_set());
    const auto t2 = Clock::now();
    (void)run_loop(core::OnlinePredictor(*models), *in, 0.0, nullptr);
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    inputs_s.push_back(seconds_between(t1, t2));
    warmup_s.push_back(seconds_between(t2, t3));
    times.push_back(t);

    ++ledger.attempted;
    sim::GpuDevice node(sim::GpuSpec::ga100(), kPaperNodeSeed);
    out.evals =
        core::evaluate_suite(*models, node, workloads::evaluation_set(), {}, 3, kThreshold);
    if (!first) {
      for (const core::AppEvaluation& e : out.evals)
        ledger.mix(std::bit_cast<std::uint64_t>(e.p_ed2p.frequency_mhz));
      first = std::move(out);
    } else if (!same_outcome(*first, out)) {
      ++ledger.mismatches;
      std::fprintf(stderr, "[benchmark] MISMATCH: offline repeat %d differs from the first\n", i);
    }
  }
  const auto med = [&](auto OfflineTimes::*field) {
    std::vector<double> v;
    for (const OfflineTimes& t : times) v.push_back(static_cast<double>(t.*field));
    return stats::median(v);
  };
  const std::size_t n = times.size();
  report.set("setup_s", stats::median(setup_s), "s", n);
  report.set("setup.model_load_s", 0.0, "s", 0);
  report.set("setup.inputs_s", stats::median(inputs_s), "s", n);
  report.set("setup.warmup_s", stats::median(warmup_s), "s", n);
  report.set("train_s", med(&OfflineTimes::total_s), "s", n);
  report.set("dcgm.profile_suite_s", med(&OfflineTimes::profile_s), "s", n);
  report.set("core.build_dataset_s", med(&OfflineTimes::dataset_s), "s", n);
  report.set("features.rank_s", med(&OfflineTimes::rank_s), "s", n);
  report.set("nn.train_power_s", med(&OfflineTimes::power_s), "s", n);
  report.set("nn.train_time_s", med(&OfflineTimes::time_s), "s", n);
  report.set("nn.epoch_ms.power",
             1e3 * med(&OfflineTimes::power_s) / med(&OfflineTimes::power_epochs), "ms", n);
  report.set("nn.epoch_ms.time",
             1e3 * med(&OfflineTimes::time_s) / med(&OfflineTimes::time_epochs), "ms", n);
  const double rows_trained = med(&OfflineTimes::rows) *
                              (med(&OfflineTimes::power_epochs) + med(&OfflineTimes::time_epochs));
  report.set("nn.train_rows_per_s",
             rows_trained / (med(&OfflineTimes::power_s) + med(&OfflineTimes::time_s)), "1/s", n);
  std::printf("  top-3 MI features: power %s, %s, %s; time %s, %s, %s\n",
              first->power_rank[0].feature.c_str(), first->power_rank[1].feature.c_str(),
              first->power_rank[2].feature.c_str(), first->time_rank[0].feature.c_str(),
              first->time_rank[1].feature.c_str(), first->time_rank[2].feature.c_str());

  // The offline phases take most of the run's time; the decision phase
  // takes half of run_seconds.
  const double loop_s = opt.smoke ? 1.0 : opt.trace ? opt.seconds / 4 : opt.seconds / 2;
  measure(opt, *models, *in, loop_s, trace ? &*trace : nullptr, report, ledger);
  zero_serve_layers(report);
  return true;
}

}  // namespace bench
