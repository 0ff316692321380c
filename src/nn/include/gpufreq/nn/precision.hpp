#pragma once

namespace gpufreq::nn {

/// Inference arithmetic. The library computes in fp32 only; this enum,
/// to_string and default_precision exist only because the benchmark
/// harness (benchmark/src/{main,fleet,closed_loop}.cpp) names them — it
/// prints `precision fp32` in its result header and passes the value to
/// core::OnlinePredictor. The next change to the benchmark retires them
/// together with that OnlinePredictor parameter.
enum class Precision {
  kFp32,
};

constexpr const char* to_string(Precision) { return "fp32"; }

constexpr Precision default_precision() { return Precision::kFp32; }

}  // namespace gpufreq::nn
