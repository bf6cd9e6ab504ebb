#ifndef LEARNEDSQLGEN_COMMON_STOPWATCH_H_
#define LEARNEDSQLGEN_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace lsg {

/// Monotonic stopwatch for the generation-time experiments (Figures 6, 7,
/// 8b, 9b, 11 report generation time) and the observability layer's span
/// timing. Always steady_clock: timings must never jump with wall-clock
/// adjustments (NTP slew, suspend).
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the start time to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction/Restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed integer nanoseconds since construction/Restart (span tracer
  /// resolution).
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Monotonic nanoseconds since an arbitrary fixed epoch (process-wide
  /// comparable; not wall time).
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady, "timings must come from a monotonic clock");
  Clock::time_point start_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_COMMON_STOPWATCH_H_
