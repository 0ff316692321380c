// Tests of the allocation-free inference path: the *_into entry points
// must produce bitwise-identical results to their allocating wrappers, and
// a warmed-up one-item OnlinePredictor::predict_sweep_batch must make zero
// heap allocations in steady state — verified with a counting global
// operator new. The replacement forwards to std::malloc, so every other test in
// this binary runs unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "gpufreq/core/evaluation.hpp"
#include "gpufreq/core/model_cache.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/workloads/registry.hpp"

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

namespace gpufreq::core {
namespace {

nn::Matrix random_features(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  nn::Matrix x(rows, 3);
  for (std::size_t i = 0; i < rows; ++i) {
    x(i, 0) = static_cast<float>(rng.uniform(0.0, 1.0));   // fp_active
    x(i, 1) = static_cast<float>(rng.uniform(0.0, 1.0));   // dram_active
    x(i, 2) = static_cast<float>(rng.uniform(0.5, 1.4));   // clock (GHz)
  }
  return x;
}

// A structurally-valid DnnModel without the training cost: untrained
// paper-architecture weights plus scalers fitted on plausible data, wired
// in through the same restore() path the model cache uses.
DnnModel make_model(Target target, std::uint64_t seed) {
  nn::ModelBundle bundle;
  bundle.network = nn::Network(3, nn::Network::paper_architecture(), seed);
  bundle.input_scaler.fit(random_features(64, seed + 1));
  Rng rng(seed + 2);
  nn::Matrix y(64, 1);
  for (float& v : y.flat()) v = static_cast<float>(rng.uniform(0.2, 2.0));
  bundle.target_scaler.fit(y);
  DnnModel model;
  model.restore(std::move(bundle), target);
  return model;
}

PowerTimeModels make_models() {
  PowerTimeModels models;
  models.power = make_model(Target::kPower, 101);
  models.time = make_model(Target::kTime, 202);
  return models;
}

TEST(InferenceSweep, NetworkPredictIntoMatchesPredict) {
  nn::Network net(3, nn::Network::paper_architecture(), 77);
  net.prepare_inference();
  const nn::Matrix x = random_features(61, 5);
  const nn::Matrix y = net.predict(x);
  nn::InferenceWorkspace ws;
  const nn::Matrix& y2 = net.predict_into(x, ws);
  ASSERT_EQ(y2.rows(), y.rows());
  ASSERT_EQ(y2.cols(), y.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    EXPECT_EQ(y(i, 0), y2(i, 0)) << "row " << i;  // bitwise
  }
  // The workspace is reusable: a second call with different data is fine.
  const nn::Matrix x2 = random_features(7, 6);
  const nn::Matrix& y3 = net.predict_into(x2, ws);
  EXPECT_EQ(y3.rows(), 7u);
}

TEST(InferenceSweep, PredictVectorIntoMatchesPredictVector) {
  nn::Network net(3, nn::Network::paper_architecture(), 13);
  net.prepare_inference();
  const nn::Matrix x = random_features(19, 3);
  const std::vector<double> a = net.predict_vector(x);
  std::vector<double> b(x.rows());
  nn::InferenceWorkspace ws;
  net.predict_vector_into(x, ws, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(InferenceSweep, ModelPredictIntoMatchesPredict) {
  const DnnModel model = make_model(Target::kPower, 55);
  const nn::Matrix x = random_features(23, 8);
  const std::vector<double> a = model.predict(x);
  DnnModel::Workspace ws;
  std::vector<double> b(x.rows());
  model.predict_into(x, ws, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(InferenceSweep, PredictSweepMatchesPredictFromFeatures) {
  const PowerTimeModels models = make_models();
  const OnlinePredictor predictor(models);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  const DvfsProfile p = predictor.predict_from_features(acq.mean_counters, acq.exec_time_s,
                                                        gpu.spec(), freqs, "lammps");
  const BatchSweepItem item{.counters = &acq.mean_counters,
                            .measured_time_at_max_s = acq.exec_time_s,
                            .frequencies = freqs};
  BatchSweepWorkspace ws;
  predictor.predict_sweep_batch({&item, 1}, gpu.spec(), ws);
  ASSERT_EQ(p.size(), freqs.size());
  ASSERT_EQ(ws.frequencies.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_EQ(p.frequency_mhz[i], ws.frequencies[i]) << i;
    EXPECT_EQ(p.power_w[i], ws.power_w[i]) << i;
    EXPECT_EQ(p.time_s[i], ws.time_s[i]) << i;
    EXPECT_EQ(p.energy_j[i], ws.energy_j[i]) << i;
  }
  // Physical sanity on the fabricated models' output path: the clamps
  // guarantee positive power and time, hence positive energy.
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(ws.power_w[i], 0.0);
    EXPECT_GT(ws.time_s[i], 0.0);
    EXPECT_EQ(ws.energy_j[i], ws.power_w[i] * ws.time_s[i]);
  }
}

TEST(InferenceSweep, TrainingInvalidatesPack) {
  nn::Network net(3, nn::Network::paper_architecture(), 31);
  net.prepare_inference();
  ASSERT_TRUE(net.inference_prepared());
  auto opt = nn::make_optimizer("sgd", 1e-3);
  net.bind_optimizer(*opt);
  const nn::Matrix x = random_features(8, 41);
  nn::Matrix y(8, 1);
  for (float& v : y.flat()) v = 0.5f;
  (void)net.train_step(x, y, nn::Loss::kMse, *opt);
  EXPECT_FALSE(net.inference_prepared());
}

TEST(InferenceSweep, SteadyStateSweepIsAllocationFree) {
  const PowerTimeModels models = make_models();
  const OnlinePredictor predictor(models);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  const BatchSweepItem item{.counters = &acq.mean_counters,
                            .measured_time_at_max_s = acq.exec_time_s,
                            .frequencies = freqs};
  BatchSweepWorkspace ws;
  // Warm up: first calls grow the workspace buffers (and spin up the
  // thread pool / packed weights if not already live).
  for (int i = 0; i < 3; ++i) predictor.predict_sweep_batch({&item, 1}, gpu.spec(), ws);

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 5; ++i) predictor.predict_sweep_batch({&item, 1}, gpu.spec(), ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "a steady-state one-item sweep must not touch the heap";
}

// The one sweep body is bitwise identical across kernel backends: the
// committed paper models swept over every registry app x the 61 used
// frequencies give the same power/time/energy bits on each backend. avx2
// vs avx512 is asserted on every build. The scalar backend joins the
// comparison only when this TU has __FMA__: it shares the build's arch
// flags with the scalar kernel TU, and a portable build's scalar kernels
// round each multiply-add twice (a per-lane std::fma there would cost
// about 10x, DESIGN.md §7).
TEST(InferenceSweep, PaperModelsSweepIsBitwiseAcrossBackends) {
  using nn::kernels::Backend;
  std::vector<Backend> backends;
#if defined(__FMA__)
  backends.push_back(Backend::kScalar);
#endif
  if (nn::kernels::avx2_available()) backends.push_back(Backend::kAvx2);
  if (nn::kernels::avx512_available()) backends.push_back(Backend::kAvx512);
  if (backends.size() < 2) GTEST_SKIP() << "fewer than two comparable kernel backends";

  const PowerTimeModels models = load_models(GPUFREQ_PAPER_MODELS);
  const OnlinePredictor predictor(models);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  sim::RunOptions ro;
  ro.collect_samples = false;
  const std::vector<double> freqs = gpu.spec().used_frequencies();
  ASSERT_EQ(freqs.size(), 61u);
  std::vector<sim::RunResult> runs;
  for (const workloads::WorkloadDescriptor& wl : workloads::all()) runs.push_back(gpu.run(wl, ro));
  ASSERT_EQ(runs.size(), 27u);

  const auto sweep_all = [&] {
    std::vector<std::uint64_t> out;
    for (const sim::RunResult& run : runs) {
      const DvfsProfile p = predictor.predict_from_features(run.mean_counters, run.exec_time_s,
                                                            gpu.spec(), freqs, "app");
      for (const std::vector<double>* curve : {&p.power_w, &p.time_s, &p.energy_j})
        for (const double v : *curve) out.push_back(std::bit_cast<std::uint64_t>(v));
    }
    return out;
  };
  std::vector<std::vector<std::uint64_t>> curves;
  for (const Backend b : backends) {
    nn::kernels::set_kernel_backend(b);
    curves.push_back(sweep_all());
  }
  nn::kernels::set_kernel_backend(Backend::kAuto);

  for (std::size_t b = 1; b < backends.size(); ++b) {
    ASSERT_EQ(curves[b].size(), curves[0].size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < curves[0].size(); ++i) differing += curves[b][i] != curves[0][i];
    EXPECT_EQ(differing, 0u) << nn::kernels::to_string(backends[b]) << " vs "
                             << nn::kernels::to_string(backends[0]) << ": " << differing << " of "
                             << curves[0].size() << " values differ";
  }
}

// Golden of Table 4: the 24 frequency picks (M-ED2P, P-ED2P, M-EDP,
// P-EDP for the six evaluation apps) of the committed paper models, as
// bench/table4_optimal_frequencies prints them and EXPERIMENTS.md quotes
// them. The measured picks pin the simulator, the predicted ones pin the
// sweep. Checked on every backend whose fp32 arithmetic is comparable
// (the scalar one only when this TU has __FMA__, as above).
TEST(InferenceSweep, PaperModelsTable4PicksMatchGolden) {
  using nn::kernels::Backend;
  std::vector<Backend> backends;
#if defined(__FMA__)
  backends.push_back(Backend::kScalar);
#endif
  if (nn::kernels::avx2_available()) backends.push_back(Backend::kAvx2);
  if (nn::kernels::avx512_available()) backends.push_back(Backend::kAvx512);
  if (backends.empty()) GTEST_SKIP() << "no kernel backend with fused multiply-add";

  struct Picks {
    const char* app;
    double m_ed2p, p_ed2p, m_edp, p_edp;
  };
  const std::vector<Picks> golden = {
      {"lammps", 1110, 1035, 1110, 1020}, {"namd", 1155, 1005, 990, 990},
      {"gromacs", 960, 1005, 915, 930},   {"lstm", 1080, 1020, 795, 720},
      {"bert", 1200, 1125, 1050, 1020},   {"resnet50", 1350, 1410, 1170, 1140},
  };

  const PowerTimeModels models = load_models(GPUFREQ_PAPER_MODELS);
  for (const Backend b : backends) {
    SCOPED_TRACE(nn::kernels::to_string(b));
    nn::kernels::set_kernel_backend(b);
    // The device seed of the bench tables (bench/common.hpp kGa100Seed).
    sim::GpuDevice gpu(sim::GpuSpec::ga100(), 0xA100'5EEDULL);
    const std::vector<AppEvaluation> evals =
        evaluate_suite(models, gpu, workloads::evaluation_set(), {}, /*measure_runs=*/3);
    ASSERT_EQ(evals.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
      const Picks& g = golden[i];
      const AppEvaluation& ev = evals[i];
      ASSERT_EQ(ev.app, g.app);
      EXPECT_EQ(ev.m_ed2p.frequency_mhz, g.m_ed2p) << g.app << " M-ED2P";
      EXPECT_EQ(ev.p_ed2p.frequency_mhz, g.p_ed2p) << g.app << " P-ED2P";
      EXPECT_EQ(ev.m_edp.frequency_mhz, g.m_edp) << g.app << " M-EDP";
      EXPECT_EQ(ev.p_edp.frequency_mhz, g.p_edp) << g.app << " P-EDP";
    }
  }
  nn::kernels::set_kernel_backend(Backend::kAuto);
}

}  // namespace
}  // namespace gpufreq::core
