#pragma once

#include <optional>
#include <sstream>
#include <string>

#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq::log {

/// Severity levels, ordered. Messages below the global threshold are dropped.
enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Set the global log threshold (thread-safe; relaxed atomic).
void set_level(Level level);

/// Current global log threshold.
Level level();

/// True if a message at `lvl` would currently be emitted.
bool enabled(Level lvl);

namespace detail {
/// The mutex serializing emitted log lines (stderr interleaving guard).
/// Exposed so write() can declare, checkably, that callers must not
/// already hold it: LineStream destructors fire at unpredictable points,
/// and re-entering write() under the lock would self-deadlock.
Mutex& write_mutex();
}  // namespace detail

/// Emit one log line ("[level] module: message") to stderr. Thread-safe;
/// lines from concurrent threads never interleave.
void write(Level lvl, const std::string& module, const std::string& message)
    GPUFREQ_EXCLUDES(detail::write_mutex());

namespace detail {
/// One log line. The stream exists only when the level is enabled, so a
/// disabled line formats nothing: operator<< is a test and a return.
class LineStream {
 public:
  LineStream(Level lvl, std::string module) : lvl_(lvl), module_(std::move(module)) {
    if (enabled(lvl_)) ss_.emplace();
  }
  ~LineStream() {
    if (ss_) write(lvl_, module_, ss_->str());
  }
  LineStream(const LineStream&) = delete;
  LineStream& operator=(const LineStream&) = delete;

  template <typename T>
  LineStream& operator<<(const T& value) {
    if (ss_) *ss_ << value;
    return *this;
  }

 private:
  Level lvl_;
  std::string module_;
  std::optional<std::ostringstream> ss_;
};
}  // namespace detail

/// Streaming helpers: log::info("sim") << "clock set to " << mhz << " MHz";
inline detail::LineStream debug(std::string module) { return {Level::kDebug, std::move(module)}; }
inline detail::LineStream info(std::string module) { return {Level::kInfo, std::move(module)}; }
inline detail::LineStream warn(std::string module) { return {Level::kWarn, std::move(module)}; }
inline detail::LineStream error(std::string module) { return {Level::kError, std::move(module)}; }

}  // namespace gpufreq::log
