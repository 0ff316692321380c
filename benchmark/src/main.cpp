// gpufreq_benchmark: runs one workload of the repository benchmark and
// writes its results JSON. run.sh builds it and is the command to use:
//
//   gpufreq_benchmark --workload W --seed N [--seconds S] [--smoke]
//                     [--trace --trace-dir DIR] --results FILE
//
// Exit codes: 0 correct run, 1 a correctness failure (mismatch, exception,
// incomplete request), 2 usage error, 3 invalid run (the generator could
// not hold the nominal rate; nothing is reported).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/precision.hpp"
#include "gpufreq/util/thread_pool.hpp"
#include "harness.hpp"

namespace {

using bench::Options;

int usage(const char* msg) {
  std::fprintf(stderr,
               "gpufreq_benchmark: %s\n"
               "usage: gpufreq_benchmark --workload fleet-repeat|fleet-unique|advisor|offline-train"
               " --seed N [--seconds S] [--smoke] [--trace --trace-dir DIR] --results FILE\n",
               msg);
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void write_results(const Options& opt, const bench::Report& report, const bench::Ledger& ledger) {
  std::FILE* f = std::fopen(opt.results.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gpufreq_benchmark: cannot write %s\n", opt.results.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %.17g,\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds);
  std::fprintf(f, "  \"trace\": %s,\n  \"smoke\": %s,\n", opt.trace ? "true" : "false",
               opt.smoke ? "true" : "false");
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               ledger.failed() == 0 ? "true" : "false",
               static_cast<unsigned long long>(ledger.attempted),
               static_cast<unsigned long long>(ledger.failed()));
  std::fprintf(f, "  \"decision_digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(ledger.digest));
  std::fprintf(f,
               "  \"env\": {\"nproc\": %u, \"threads\": %zu, \"backend\": \"%s\", "
               "\"precision\": \"%s\", \"cpu\": \"%s\"},\n",
               std::thread::hardware_concurrency(), gpufreq::num_threads(),
               gpufreq::nn::kernels::to_string(gpufreq::nn::kernels::active_backend()),
               gpufreq::nn::to_string(gpufreq::nn::default_precision()),
               json_escape(cpu_model()).c_str());
  std::fputs("  \"metrics\": {\n", f);
  const auto& items = report.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& [name, m] = items[i];
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu}%s\n",
                 name.c_str(), m.value, m.unit.c_str(), m.n, i + 1 < items.size() ? "," : "");
  }
  std::fputs("  }\n}\n", f);
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "gpufreq_benchmark: failed writing %s\n", opt.results.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed needs a non-negative integer");
      have_seed = true;
    } else if (a == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        return usage("--seconds needs a number in (0, 600]");
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--results") {
      opt.results = value();
    } else if (a == "--trace-dir") {
      opt.trace_dir = value();
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (!have_seed || opt.results.empty() || (opt.trace && opt.trace_dir.empty()))
    return usage("--seed, --results and (with --trace) --trace-dir are required");

  bench::Report report;
  bench::Ledger ledger;
  bool valid = true;
  std::printf("== %s  seed %llu  %.0f s%s%s  threads %zu  backend %s  precision %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "  traced" : "", opt.smoke ? "  smoke" : "", gpufreq::num_threads(),
              gpufreq::nn::kernels::to_string(gpufreq::nn::kernels::active_backend()),
              gpufreq::nn::to_string(gpufreq::nn::default_precision()));
  try {
    if (opt.workload == "fleet-repeat" || opt.workload == "fleet-unique") {
      valid = bench::run_fleet(opt, opt.workload == "fleet-repeat", report, ledger);
    } else if (opt.workload == "advisor") {
      valid = bench::run_advisor(opt, report, ledger);
    } else if (opt.workload == "offline-train") {
      valid = bench::run_offline(opt, report, ledger);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpufreq_benchmark: %s failed: %s\n", opt.workload.c_str(), e.what());
    ++ledger.exceptions;
    if (ledger.attempted == 0) ledger.attempted = 1;
  }
  if (!valid) return 3;

  const double failed_frac = ledger.attempted > 0 ? static_cast<double>(ledger.failed()) /
                                                        static_cast<double>(ledger.attempted)
                                                  : 0.0;
  report.set("failed_frac", failed_frac, "ratio", ledger.attempted);
  std::printf("\n%-36s %18s %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : report.items())
    std::printf("%-36s %18.6f %-8s %10zu\n", name.c_str(), m.value, m.unit.c_str(), m.n);
  std::printf("decision_digest %016llx  attempted %llu  failed %llu\n",
              static_cast<unsigned long long>(ledger.digest),
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed()));
  write_results(opt, report, ledger);
  return ledger.failed() == 0 ? 0 : 1;
}
