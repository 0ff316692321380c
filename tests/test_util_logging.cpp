// Log lines format their arguments only when their level is enabled: a
// disabled debug line on a hot path (GpuDevice::set_app_clock runs on every
// profile_at_max) must cost a level test, not an ostringstream.
#include "gpufreq/util/logging.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace gpufreq::log {
namespace {

struct ScopedLevel {
  explicit ScopedLevel(Level lvl) : saved(level()) { set_level(lvl); }
  ~ScopedLevel() { set_level(saved); }
  Level saved;
};

// Counts how often a log line formats it.
struct Probe {
  int* formatted;
};

std::ostream& operator<<(std::ostream& os, const Probe& p) {
  ++*p.formatted;
  return os << "probe";
}

TEST(Logging, DisabledLevelNeverFormatsItsArguments) {
  const ScopedLevel scoped(Level::kWarn);
  int formatted = 0;
  ::testing::internal::CaptureStderr();
  debug("test") << "value " << Probe{&formatted};
  info("test") << Probe{&formatted} << 42;
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(formatted, 0);
}

TEST(Logging, EnabledLevelWritesTheLine) {
  const ScopedLevel scoped(Level::kDebug);
  int formatted = 0;
  ::testing::internal::CaptureStderr();
  debug("test") << "value " << Probe{&formatted} << ' ' << 42;
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "[debug] test: value probe 42\n");
  EXPECT_EQ(formatted, 1);
}

}  // namespace
}  // namespace gpufreq::log
