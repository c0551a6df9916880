// Minimal leveled logging with a simulation-time prefix.
//
// Logging is off by default (benchmarks must stay quiet); tests and
// debugging sessions enable it per-level. The sink is replaceable so tests
// can capture output.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "base/units.h"

namespace es2 {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Replaces the output sink; pass nullptr to restore the stderr default.
  void set_sink(Sink sink);

  void log(LogLevel level, SimTime now, const std::string& msg);

 private:
  Logger();
  LogLevel level_ = LogLevel::kOff;
  Sink sink_;
};

/// Sim-time token window for throttling repetitive warnings (fault
/// injection, overload paths): at most `max_per_window` messages per
/// `window` of simulated time. State is per-instance — parallel scenarios
/// each own their limiter; never share one through a static.
class LogRateLimiter {
 public:
  /// Allows `max_per_window` messages per `window` of simulated time;
  /// `max_per_window` <= 0 disables throttling.
  LogRateLimiter(SimDuration window, int max_per_window)
      : window_(window), max_(max_per_window) {}

  /// True if a message stamped `now` may be emitted. `suppressed`, when
  /// non-null, receives the number of messages swallowed since the last
  /// allowed one, so readers can tell the log is throttled.
  bool allow(SimTime now, std::int64_t* suppressed = nullptr);

  std::int64_t total_suppressed() const { return total_suppressed_; }

 private:
  SimDuration window_;
  int max_;
  bool started_ = false;
  SimTime window_start_ = 0;
  int in_window_ = 0;
  std::int64_t since_last_allowed_ = 0;
  std::int64_t total_suppressed_ = 0;
};

namespace detail {
// printf-style formatting into std::string.
std::string vformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
}  // namespace detail

#define ES2_LOG_AT(level, now, ...)                                     \
  do {                                                                  \
    if (::es2::Logger::instance().enabled(level)) {                     \
      ::es2::Logger::instance().log(level, (now),                       \
                                    ::es2::detail::vformat(__VA_ARGS__)); \
    }                                                                   \
  } while (0)

#define ES2_DEBUG(now, ...) ES2_LOG_AT(::es2::LogLevel::kDebug, now, __VA_ARGS__)
#define ES2_INFO(now, ...) ES2_LOG_AT(::es2::LogLevel::kInfo, now, __VA_ARGS__)
#define ES2_WARN(now, ...) ES2_LOG_AT(::es2::LogLevel::kWarn, now, __VA_ARGS__)
#define ES2_ERROR(now, ...) ES2_LOG_AT(::es2::LogLevel::kError, now, __VA_ARGS__)

/// Rate-limited warning: consults `limiter` (a LogRateLimiter lvalue) only
/// when the warn level is enabled, so disabled logging costs one branch.
#define ES2_WARN_RL(limiter, now, ...)                                     \
  do {                                                                     \
    if (::es2::Logger::instance().enabled(::es2::LogLevel::kWarn)) {       \
      std::int64_t es2_rl_suppressed = 0;                                  \
      if ((limiter).allow((now), &es2_rl_suppressed)) {                    \
        if (es2_rl_suppressed > 0) {                                       \
          ES2_WARN((now), "(%lld similar warnings suppressed)",            \
                   static_cast<long long>(es2_rl_suppressed));             \
        }                                                                  \
        ES2_WARN((now), __VA_ARGS__);                                      \
      }                                                                    \
    }                                                                      \
  } while (0)

}  // namespace es2
