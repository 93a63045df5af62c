// Cycle-accurate clock used for all latency accounting in SpeedyBox.
//
// On x86 this reads the TSC directly (the same primitive BESS/OpenNetVM use
// for per-packet cycle accounting); elsewhere it falls back to
// std::chrono::steady_clock. The TSC frequency is calibrated once at startup
// against steady_clock so cycles can be converted to wall time.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define SPEEDYBOX_HAVE_RDTSC 1
#endif

namespace speedybox::util {

class CycleClock {
 public:
  /// Current cycle counter. Monotonic, ~constant rate on modern x86
  /// (invariant TSC). Inline, so a timer pair costs no call.
  static std::uint64_t now() noexcept {
#ifdef SPEEDYBOX_HAVE_RDTSC
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Calibrated counter frequency in Hz. First call performs a short
  /// (~20ms) calibration loop; subsequent calls are free.
  static double frequency_hz() noexcept;

  /// Convert a cycle delta to nanoseconds / microseconds using the
  /// calibrated frequency.
  static double to_ns(std::uint64_t cycles) noexcept;
  static double to_us(std::uint64_t cycles) noexcept;

  /// Convert wall time back into cycles (used by the platform cost models).
  static std::uint64_t from_ns(double ns) noexcept;

  /// Calibrated cost of one now() call. A span measured as
  /// `now() ... now()` is inflated by roughly one call's worth of counter
  /// serialization (considerable under virtualized TSC); segment() removes
  /// it.
  static std::uint64_t timer_overhead() noexcept;

  /// Duration of the segment [begin, end) with the timer overhead removed
  /// (saturating at zero).
  static std::uint64_t segment(std::uint64_t begin,
                               std::uint64_t end) noexcept {
    const std::uint64_t raw = end - begin;
    const std::uint64_t overhead = timer_overhead();
    return raw > overhead ? raw - overhead : 0;
  }
};

/// Scoped stopwatch: accumulates elapsed cycles into a counter on
/// destruction. Used by the platforms for per-NF cycle attribution.
class ScopedCycleTimer {
 public:
  explicit ScopedCycleTimer(std::uint64_t& sink) noexcept
      : sink_(sink), start_(CycleClock::now()) {}
  ScopedCycleTimer(const ScopedCycleTimer&) = delete;
  ScopedCycleTimer& operator=(const ScopedCycleTimer&) = delete;
  ~ScopedCycleTimer() { sink_ += CycleClock::now() - start_; }

 private:
  std::uint64_t& sink_;
  std::uint64_t start_;
};

}  // namespace speedybox::util
