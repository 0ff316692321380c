// Open-loop fleet workloads: fleet-repeat (27 apps replayed with Zipf
// popularity, so the curve cache and coalescing do the work) and
// fleet-unique (a 69 120-entry pool of distinct measurements, so every
// request misses both). One generator thread paces a pre-generated Poisson
// schedule, submits, and harvests completed tickets inline; latency runs
// from each arrival's due time to publication.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/dcgm/collection.hpp"
#include "gpufreq/serve/snapshot.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_device.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/workloads/registry.hpp"
#include "harness.hpp"

namespace bench {

using namespace gpufreq;

namespace {

/// One f_max measurement a request replays.
struct Input {
  sim::CounterSet counters;
  double t_max_s = 0.0;
  std::uint16_t app = 0;  ///< index into workloads::all()
};

/// One pre-generated arrival. `unit_t` is the arrival time of a unit-rate
/// Poisson process; a phase at rate r fires it at unit_t / r seconds, so
/// one schedule serves every rate the SLO search probes.
struct Arrival {
  double unit_t = 0.0;
  std::uint32_t input = 0;
  std::uint8_t category = 0;
  std::uint8_t band = 0;
};

struct FleetShape {
  const char* name;
  double nominal_rps;
  double bracket_lo;  ///< SLO-search bracket, requests/s
  double bracket_hi;
};

constexpr FleetShape kRepeatShape{"fleet-repeat", 100'000.0, 150'000.0, 1'200'000.0};
constexpr FleetShape kUniqueShape{"fleet-unique", 2'500.0, 10'000.0, 80'000.0};
constexpr std::size_t kUniqueScales = 10;
constexpr std::size_t kUniqueNodes = 256;
constexpr double kZipfS = 1.1;
/// A probe stops submitting once a request it is responsible for is this
/// old: the backlog is growing. The nominal phase must hold its rate, so
/// its limit only keeps a broken build from running away.
constexpr double kProbeAbortS = 0.100;
constexpr double kNominalAbortS = 2.0;
/// Generator validity: p99 lateness at the nominal rate. A nominal phase
/// that misses it is rerun; after kNominalAttempts the run is invalid.
constexpr double kMaxLateP99Ms = 0.5;
constexpr int kNominalAttempts = 3;
/// SLO-search probes: six geometric bisection steps take an 8x bracket to
/// under 5 %, and each failing probe is retried once.
constexpr int kBisectionSteps = 6;
constexpr int kMaxProbes = 2 * kBisectionSteps;
/// Below this much remaining wait the generator spins instead of sleeping.
constexpr double kSpinS = 10e-6;
constexpr double kWarmupPhaseS = 0.25;

/// Everything one set-up builds. Member order matters: the service holds
/// a reference to the holder and is destroyed first.
struct Fleet {
  std::shared_ptr<const core::PowerTimeModels> models;
  std::unique_ptr<serve::ModelSnapshotHolder> holder;
  std::unique_ptr<serve::SweepService> service;
  std::vector<Input> inputs;
  std::vector<Arrival> schedule;
};

std::vector<Input> make_inputs(const FleetShape& shape, std::uint64_t seed, Samples& profile_us) {
  const auto& apps = workloads::all();
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  // fleet-repeat measures each app once on one node; fleet-unique measures
  // every (node, scale, app) and stores the k-th measurement at position
  // slot[k] of a seeded permutation, so the pool is shuffled in place.
  const bool repeat = &shape == &kRepeatShape;
  Rng rng(Rng::hash_combine(seed, 0x0217E));
  std::vector<double> scales = {1.0};
  std::vector<std::size_t> slot;
  const std::size_t nodes = repeat ? 1 : kUniqueNodes;
  if (!repeat) {
    scales.resize(kUniqueScales);
    for (double& s : scales) s = rng.uniform(0.5, 2.0);
    slot = rng.permutation(nodes * scales.size() * apps.size());
  }
  std::vector<Input> inputs(nodes * scales.size() * apps.size());
  std::size_t k = 0;
  for (std::size_t node_id = 0; node_id < nodes; ++node_id) {
    sim::GpuDevice node(spec, repeat ? Rng::hash_combine(seed, 0xF1EE7)
                                     : Rng::hash_combine(seed, 0x10DE0000ULL + node_id));
    for (double scale : scales) {
      const dcgm::ProfilingSession session(node, max_freq_config(spec, scale));
      for (std::size_t app = 0; app < apps.size(); ++app, ++k) {
        const auto t0 = Clock::now();
        const dcgm::CollectionResult r = session.profile_at_max(apps[app]);
        profile_us.add(seconds_between(t0, Clock::now()) * 1e6);
        GPUFREQ_REQUIRE(!r.runs.empty(), "benchmark: empty max-frequency run");
        inputs[repeat ? k : slot[k]] = {r.runs.front().mean_counters, r.runs.front().exec_time_s,
                                        static_cast<std::uint16_t>(app)};
      }
    }
  }
  return inputs;
}

std::vector<Arrival> make_schedule(const FleetShape& shape, std::uint64_t seed, std::size_t n,
                                   std::size_t pool) {
  Rng rng(Rng::hash_combine(seed, 0xA771BA1));
  // fleet-repeat: Zipf(1.1) popularity over a seeded ranking of the apps;
  // fleet-unique cycles through its shuffled pool.
  std::vector<double> zipf_cdf;
  std::vector<std::size_t> rank_to_input;
  if (&shape == &kRepeatShape) {
    rank_to_input = rng.permutation(pool);
    double total = 0.0;
    for (std::size_t r = 0; r < pool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }
  std::vector<Arrival> schedule(n);
  double t = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    t += -std::log(1.0 - rng.uniform());
    Arrival& a = schedule[k];
    a.unit_t = t;
    if (zipf_cdf.empty()) {
      a.input = static_cast<std::uint32_t>(k % pool);
    } else {
      const auto r = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.uniform()) - zipf_cdf.begin());
      a.input = static_cast<std::uint32_t>(rank_to_input[std::min(r, pool - 1)]);
    }
    const double u = rng.uniform();
    const serve::WorkloadCategory category =
        u < kSystemFrac                      ? serve::WorkloadCategory::kSystem
        : u < kSystemFrac + kInteractiveFrac ? serve::WorkloadCategory::kInteractive
                                             : serve::WorkloadCategory::kBatch;
    a.category = static_cast<std::uint8_t>(category);
    a.band = static_cast<std::uint8_t>(rng.uniform_index(serve::kBandsPerCategory));
  }
  return schedule;
}

serve::SweepRequest make_request(const Input& in, serve::WorkloadCategory category, int band) {
  serve::SweepRequest r;
  r.descriptor = {.category = category, .band = band};
  r.counters = in.counters;
  r.measured_time_at_max_s = in.t_max_s;
  return r;
}

/// A sampled outcome kept for verification after the phase.
struct Check {
  std::uint32_t arrival = 0;
  std::uint32_t input = 0;
  serve::SweepOutcome outcome;
};

struct Phase {
  double rate = 0.0;
  double duration_s = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t unsent = 0;  ///< scheduled arrivals skipped after an abort
  std::size_t backlog_max = 0;
  bool aborted = false;
  double wall_s = 0.0;
  WindowedSamples decision_ms, late_ms;
  Samples submit_us, queue_ms, service_ms;
  std::array<Samples, serve::kWorkloadCategories> queue_ms_by_category;
  serve::ServiceStats before, after;
  std::vector<Check> checks;
};

struct PhaseOptions {
  double rate = 0.0;
  double duration_s = 0.0;
  double abort_age_s = kNominalAbortS;
  std::size_t verify_every = kVerifyEvery;
  bool first_per_app = true;
  TraceBuffer* trace = nullptr;
};

/// Run one open-loop phase: pace the schedule at opt.rate for
/// opt.duration_s, submit, harvest inline in submission order, then wait
/// for the tail.
Phase run_phase(Fleet& f, const PhaseOptions& opt) {
  Phase ph;
  ph.rate = opt.rate;
  ph.duration_s = opt.duration_s;
  const auto expected = static_cast<std::size_t>(opt.rate * opt.duration_s * 1.05) + 64;
  ph.decision_ms.reserve(expected);
  ph.late_ms.reserve(expected);
  for (Samples* s : {&ph.submit_us, &ph.queue_ms, &ph.service_ms})
    s->reserve(expected);
  ph.checks.reserve(expected / opt.verify_every + 64);
  std::vector<bool> app_seen(workloads::all().size(), !opt.first_per_app);

  struct Pending {
    serve::SweepTicket ticket;
    Clock::time_point due, submit_start, submit_end;
    std::uint32_t arrival = 0;
    std::uint8_t category = 0;
    bool check = false;
  };
  std::deque<Pending> pending;
  const auto start = Clock::now() + std::chrono::milliseconds(2);

  // Latency from the due time = generator lateness + submit +
  // SweepOutcome::total_latency_s (enqueue stamp -> publish). The stamp is
  // taken inside submit, so the tail of submit after it counts twice.
  const auto harvest_one = [&](const Pending& p) {
    const serve::SweepOutcome& o = p.ticket.wait();
    const double late_s = seconds_between(p.due, p.submit_start);
    const double submit_s = seconds_between(p.submit_start, p.submit_end);
    ph.decision_ms.add((late_s + submit_s + o.total_latency_s) * 1e3);
    ph.late_ms.add(late_s * 1e3);
    ph.submit_us.add(submit_s * 1e6);
    ph.queue_ms.add(o.queue_latency_s * 1e3);
    ph.queue_ms_by_category[p.category].add(o.queue_latency_s * 1e3);
    ph.service_ms.add((o.total_latency_s - o.queue_latency_s) * 1e3);
    ++ph.completed;
    if (p.check) ph.checks.push_back({p.arrival, f.schedule[p.arrival].input, o});
    if (opt.trace != nullptr && p.arrival % kTraceEvery == 0) {
      // Queue and service are anchored at submit return: the enqueue stamp
      // inside submit is not visible from outside.
      TraceBuffer& tr = *opt.trace;
      const double s_end = tr.at(p.submit_end);
      const std::int32_t root =
          tr.add("request", -1, p.arrival, tr.at(p.due), s_end + o.total_latency_s);
      if (root >= 0) {
        tr.add("harness.late", root, p.arrival, p.due, p.submit_start);
        tr.add("serve.submit", root, p.arrival, p.submit_start, p.submit_end);
        tr.add("serve.queue", root, p.arrival, s_end, s_end + o.queue_latency_s);
        tr.add("serve.service", root, p.arrival, s_end + o.queue_latency_s,
               s_end + o.total_latency_s);
      }
    }
  };
  const auto harvest_ready = [&] {
    while (!pending.empty() && pending.front().ticket.done()) {
      harvest_one(pending.front());
      pending.pop_front();
    }
  };

  ph.before = f.service->stats();
  const auto abort_age = std::chrono::duration<double>(opt.abort_age_s);
  const auto spin = std::chrono::duration<double>(kSpinS);
  std::size_t k = 0;
  for (; k < f.schedule.size(); ++k) {
    const Arrival& a = f.schedule[k];
    const double due_s = a.unit_t / opt.rate;
    if (due_s >= opt.duration_s) break;
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
    auto now = Clock::now();
    while (now < due) {
      harvest_ready();
      now = Clock::now();
      if (due - now > spin) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
    }
    if (now - due > abort_age || (!pending.empty() && now - pending.front().due > abort_age)) {
      ph.aborted = true;
      break;
    }
    const Input& in = f.inputs[a.input];
    bool check = k % opt.verify_every == 0;
    if (!app_seen[in.app]) {
      app_seen[in.app] = true;
      check = true;
    }
    Pending p;
    p.due = due;
    p.arrival = static_cast<std::uint32_t>(k);
    p.category = a.category;
    p.check = check;
    p.submit_start = Clock::now();
    p.ticket = f.service->submit(
        make_request(in, static_cast<serve::WorkloadCategory>(a.category), a.band));
    p.submit_end = Clock::now();
    pending.push_back(std::move(p));
    ++ph.submitted;
    ph.backlog_max = std::max(ph.backlog_max, pending.size());
    harvest_ready();
  }
  if (ph.aborted) {
    for (; k < f.schedule.size() && f.schedule[k].unit_t / opt.rate < opt.duration_s; ++k)
      ++ph.unsent;
  }
  while (!pending.empty()) {
    harvest_one(pending.front());
    pending.pop_front();
  }
  ph.wall_s = seconds_between(start, Clock::now());
  ph.after = f.service->stats();
  return ph;
}

/// Start the service, fill the curve cache and grow the drain workspaces
/// before timing, then run a short paced phase so the generator's buffers,
/// the thread pool and the drain settle before the first timed phase.
/// Requests go in waves of the service's largest batch, and the first wave
/// is queued before the worker starts: its first drain is a full batch, so
/// every drain workspace reaches its largest size in every run, and the
/// memory peak_rss_mb reads does not depend on how the waves were split.
void warm_up(Fleet& f, const FleetShape& shape) {
  const std::size_t n = &shape == &kRepeatShape ? 512 : 1024;
  const std::size_t wave = serve::ServiceConfig{}.max_batch;
  std::vector<serve::SweepTicket> tickets;
  tickets.reserve(wave);
  for (std::size_t i = 0; i < n; ++i) {
    // fleet-unique warms on the tail of the pool, which the timed phases
    // reach last, so warm-up entries are evicted before they are replayed.
    const Input& in = f.inputs[&shape == &kRepeatShape ? i % f.inputs.size()
                                                       : f.inputs.size() - 1 - i];
    tickets.push_back(f.service->submit(make_request(in, serve::WorkloadCategory::kBatch, 0)));
    if (tickets.size() == wave || i + 1 == n) {
      if (i < wave) f.service->start();
      for (const serve::SweepTicket& t : tickets) (void)t.wait();
      tickets.clear();
    }
  }
  (void)run_phase(f, {.rate = shape.nominal_rps,
                      .duration_s = kWarmupPhaseS,
                      .verify_every = std::numeric_limits<std::size_t>::max(),
                      .first_per_app = false});
}

core::DvfsProfile profile_of(const serve::SweepOutcome& o) {
  core::DvfsProfile p;
  p.predicted = true;
  p.frequency_mhz = o.frequencies;
  p.power_w = o.power_w;
  p.time_s = o.time_s;
  p.energy_j = o.energy_j;
  return p;
}

/// Compare each sampled outcome bitwise with an independent
/// predict_from_features at the service's precision, and require the same
/// Algorithm-1 pick. Digests the picks when `digest` is set.
void verify(const Fleet& f, const std::vector<Check>& checks, bool digest, Ledger& ledger,
            Samples& predict_us, Samples& select_us) {
  const core::OnlinePredictor reference(*f.models, nn::default_precision());
  const sim::GpuSpec& spec = f.service->spec();
  const std::vector<double>& grid = f.service->default_frequencies();
  const auto& apps = workloads::all();
  for (const Check& c : checks) {
    const Input& in = f.inputs[c.input];
    const auto t0 = Clock::now();
    const core::DvfsProfile want =
        reference.predict_from_features(in.counters, in.t_max_s, spec, grid, apps[in.app].name);
    const auto t1 = Clock::now();
    const core::Selection want_pick = decide(want);
    const auto t2 = Clock::now();
    predict_us.add(seconds_between(t0, t1) * 1e6);
    select_us.add(seconds_between(t1, t2) * 1e6);
    const core::Selection got_pick = decide(profile_of(c.outcome));
    const bool same = same_bits(c.outcome.frequencies, want.frequency_mhz) &&
                      same_bits(c.outcome.power_w, want.power_w) &&
                      same_bits(c.outcome.time_s, want.time_s) &&
                      same_bits(c.outcome.energy_j, want.energy_j) &&
                      got_pick.index == want_pick.index;
    ++ledger.verified;
    if (!same) {
      ++ledger.mismatches;
      std::fprintf(stderr, "[benchmark] MISMATCH arrival %u input %u (%s)\n", c.arrival, c.input,
                   apps[in.app].name.c_str());
    }
    if (digest) {
      ledger.mix(c.arrival);
      ledger.mix(std::bit_cast<std::uint64_t>(got_pick.frequency_mhz));
    }
  }
}

/// Requests submitted but never completed are failures. Arrivals a phase
/// never sent after an abort count as refused only in phases that must
/// hold their rate (the nominal ones); a probe aborts by design.
void account(const Phase& ph, bool must_hold_rate, Ledger& ledger) {
  const std::size_t refused = must_hold_rate ? ph.unsent : 0;
  ledger.attempted += ph.submitted + refused;
  ledger.incomplete += (ph.submitted - ph.completed) + refused;
}

void print_phase(const char* label, const Phase& ph) {
  std::printf("  %-10s rate %9.0f/s  %5.2f s  sent %8zu  p50 %8.4f ms  p99 %8.4f ms "
              "(all-sample %8.4f)  late p99 %7.4f ms (all-sample %7.4f)  backlog_max %6zu%s\n",
              label, ph.rate, ph.duration_s, ph.submitted, ph.decision_ms.percentile(50.0),
              ph.decision_ms.percentile(99.0), ph.decision_ms.overall_percentile(99.0),
              ph.late_ms.percentile(99.0), ph.late_ms.overall_percentile(99.0), ph.backlog_max,
              ph.aborted ? "  ABORTED" : "");
  ph.decision_ms.print_windows(label);
  std::fflush(stdout);
}

/// The SLO judges every sample of the probe, not the median window: a
/// stall or a growing backlog in a few windows must fail it.
bool probe_passes(const Phase& ph) {
  return !ph.aborted && ph.completed == ph.submitted &&
         ph.decision_ms.overall_percentile(99.0) <= kSloMs;
}

/// A generator that cannot hold the rate is late in most windows. A host
/// stall makes it late in the few windows the stall falls in, like every
/// other thread; that lateness stays in the latency from the due time, so
/// it does not make the run invalid.
bool generator_held_rate(const Phase& ph) {
  return ph.late_ms.percentile(99.0) <= kMaxLateP99Ms;
}

/// Serve-layer metrics of one phase, from the harvested outcomes and the
/// service's counter deltas.
void report_serve(const Phase& ph, Report& report) {
  report.set_p50_p99("serve.submit_us", ph.submit_us, "us");
  report.set_p50_p99("serve.queue_ms", ph.queue_ms, "ms");
  for (std::size_t c = 0; c < serve::kWorkloadCategories; ++c) {
    const std::string band(serve::to_string(static_cast<serve::WorkloadCategory>(c)));
    report.set("serve.queue_ms.p99." + band, ph.queue_ms_by_category[c].percentile(99.0), "ms",
               ph.queue_ms_by_category[c].size());
  }
  report.set_p50_p99("serve.service_ms", ph.service_ms, "ms");
  report.set("harness.late_ms.p50", ph.late_ms.overall_percentile(50.0), "ms", ph.late_ms.size());
  report.set("harness.late_ms.p99", ph.late_ms.overall_percentile(99.0), "ms", ph.late_ms.size());
  const double batches = static_cast<double>(ph.after.batches - ph.before.batches);
  const double done = static_cast<double>(ph.after.completed - ph.before.completed);
  const double hits = static_cast<double>(ph.after.cache_hits - ph.before.cache_hits);
  const double misses = static_cast<double>(ph.after.cache_misses - ph.before.cache_misses);
  const double evictions =
      static_cast<double>(ph.after.cache_evictions - ph.before.cache_evictions);
  const double coalesced = static_cast<double>(ph.after.coalesced - ph.before.coalesced);
  report.set("serve.batch_size.mean", batches > 0 ? done / batches : 0.0, "count",
             static_cast<std::size_t>(batches));
  report.set("serve.drains_per_s", batches / ph.wall_s, "1/s");
  report.set("serve.coalesced_frac", done > 0 ? coalesced / done : 0.0, "ratio",
             static_cast<std::size_t>(done));
  report.set("serve.backlog.max", static_cast<double>(ph.backlog_max), "count");
  report.set("core.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             static_cast<std::size_t>(hits + misses));
  report.set("core.cache_evictions_per_s", evictions / ph.wall_s, "1/s");
  report.set("core.gemm_items_per_s", misses / ph.wall_s, "1/s");
}

}  // namespace

bool run_fleet(const Options& opt, bool repeat, Report& report, Ledger& ledger) {
  const FleetShape& shape = repeat ? kRepeatShape : kUniqueShape;
  // Time split of one run: half for the nominal phase (traced runs split
  // it between an untraced and a traced phase), at most half for the SLO
  // search. Smoke runs have a 1 s nominal phase and no search.
  const double nominal_s = opt.smoke ? 1.0 : opt.trace ? opt.seconds / 4 : opt.seconds / 2;
  const double probe_s = opt.seconds / 2 / kMaxProbes;
  const int setups = opt.smoke || opt.trace ? 1 : kSetupRepeats;

  // ---- set-up --------------------------------------------------------
  // The run measures with its first set-up. The repetitions that make
  // setup_s a median run after the search: a torn-down service leaves some
  // memory behind, which peak_rss_mb must not count.
  std::vector<double> setup_s, load_s, inputs_s, warmup_s;
  const auto set_up = [&](Fleet& f, Samples& profile_us) {
    const auto t0 = Clock::now();
    f.models = std::make_shared<const core::PowerTimeModels>(load_or_train_models());
    f.holder = std::make_unique<serve::ModelSnapshotHolder>(f.models);
    f.service = std::make_unique<serve::SweepService>(*f.holder, sim::GpuSpec::ga100());
    const auto t1 = Clock::now();
    f.inputs = make_inputs(shape, opt.seed, profile_us);
    const double max_arrivals =
        std::max(shape.nominal_rps * nominal_s, shape.bracket_hi * probe_s);
    f.schedule = make_schedule(shape, opt.seed,
                               static_cast<std::size_t>(max_arrivals * 1.05) + 256,
                               f.inputs.size());
    const auto t2 = Clock::now();
    warm_up(f, shape);
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    load_s.push_back(seconds_between(t0, t1));
    inputs_s.push_back(seconds_between(t1, t2));
    warmup_s.push_back(seconds_between(t2, t3));
  };
  Fleet f;
  Samples profile_us;
  set_up(f, profile_us);
  report.set_p50_p99("dcgm.profile_at_max_us", profile_us, "us");
  std::printf("%s: %zu inputs, %zu scheduled arrivals, nominal %.0f/s for %.2f s\n", shape.name,
              f.inputs.size(), f.schedule.size(), shape.nominal_rps, nominal_s);

  tighten_timer_slack();

  // ---- nominal phase ---------------------------------------------------
  const PhaseOptions nominal{.rate = shape.nominal_rps, .duration_s = nominal_s};
  Phase ph = run_phase(f, nominal);
  print_phase("nominal", ph);
  for (int attempt = 1; !generator_held_rate(ph); ++attempt) {
    if (attempt == kNominalAttempts) {
      std::printf("INVALID: the generator cannot hold the nominal rate on this host\n");
      return false;
    }
    std::printf("  generator late p99 %.4f ms > %.1f ms; rerunning the nominal phase\n",
                ph.late_ms.percentile(99.0), kMaxLateP99Ms);
    ph = Phase{};  // free this attempt's samples before the next
    ph = run_phase(f, nominal);
    print_phase("nominal", ph);
  }
  account(ph, /*must_hold_rate=*/true, ledger);
  Samples predict_us, select_us;
  verify(f, ph.checks, /*digest=*/true, ledger, predict_us, select_us);
  report.set_decision_latency(ph.decision_ms);
  report.set("decisions_per_s", static_cast<double>(ph.completed) / ph.wall_s, "1/s",
             ph.completed);
  report_serve(ph, report);
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");

  if (opt.trace) {
    TraceBuffer trace(ph.submitted / kTraceEvery * 5 + 1024, Clock::now());
    PhaseOptions traced = nominal;
    traced.trace = &trace;
    const Phase tp = run_phase(f, traced);
    print_phase("traced", tp);
    account(tp, /*must_hold_rate=*/true, ledger);
    verify(f, tp.checks, /*digest=*/false, ledger, predict_us, select_us);
    const double base = ph.decision_ms.percentile(50.0);
    report.set("harness.trace_overhead_pct",
               100.0 * (tp.decision_ms.percentile(50.0) - base) / base, "%", tp.completed);
    trace.report_self_times(shape.name, report);
    trace.write_chrome_json(opt.trace_dir + "/" + shape.name + ".json");
  }

  // ---- SLO search --------------------------------------------------------
  double max_rps = 0.0;
  if (!opt.smoke) {
    const auto probe = [&](double rate) {
      const PhaseOptions po{.rate = rate,
                            .duration_s = probe_s,
                            .abort_age_s = kProbeAbortS,
                            .verify_every = kProbeVerifyEvery,
                            .first_per_app = false};
      const Phase p = run_phase(f, po);
      print_phase(probe_passes(p) ? "probe ok" : "probe FAIL", p);
      account(p, /*must_hold_rate=*/false, ledger);
      verify(f, p.checks, /*digest=*/false, ledger, predict_us, select_us);
      return probe_passes(p);
    };
    // Geometric bisection over the fixed bracket; a failing probe is
    // retried once. If no midpoint passes, the floor itself is probed, and
    // a floor that fails too is reported as 0: the SLO was met nowhere.
    double lo = shape.bracket_lo;
    double hi = shape.bracket_hi;
    bool lo_passed = false;
    for (int step = 0; step < kBisectionSteps; ++step) {
      const double mid = std::sqrt(lo * hi);
      if (probe(mid) || probe(mid)) {
        lo = mid;
        lo_passed = true;
      } else {
        hi = mid;
      }
    }
    if (lo_passed || probe(lo) || probe(lo)) {
      max_rps = lo;
    } else {
      std::printf("  no probe met the %.1f ms SLO, not even the bracket floor %.0f/s: "
                  "max_rps_at_slo is 0\n",
                  kSloMs, lo);
    }
  }
  report.set("max_rps_at_slo", max_rps, "req/s");

  for (int i = 1; i < setups; ++i) {
    Fleet again;
    Samples unused;
    set_up(again, unused);
  }
  report.set("setup_s", stats::median(setup_s), "s", setup_s.size());
  report.set("setup.model_load_s", stats::median(load_s), "s", load_s.size());
  report.set("setup.inputs_s", stats::median(inputs_s), "s", inputs_s.size());
  report.set("setup.warmup_s", stats::median(warmup_s), "s", warmup_s.size());

  report.set_p50_p99("core.predict_us", predict_us, "us");
  report.set("core.select_us.p50", select_us.percentile(50.0), "us", select_us.size());
  report.set("harness.verified", static_cast<double>(ledger.verified), "count");
  report.set("harness.mismatches", static_cast<double>(ledger.mismatches), "count");
  report_sweep_rate(*f.models, f.service->default_frequencies().size(), report);
  report_accuracy(*f.models, report);
  zero_offline_layers(report);
  return true;
}

}  // namespace bench
