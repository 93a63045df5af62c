#include "util/cycle_clock.hpp"

namespace speedybox::util {
namespace {

double calibrate_hz() noexcept {
#ifdef SPEEDYBOX_HAVE_RDTSC
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::uint64_t c0 = CycleClock::now();
  // Busy-wait ~20ms; long enough to average out scheduling noise, short
  // enough to be unnoticeable at startup.
  while (clock::now() - t0 < std::chrono::milliseconds(20)) {
  }
  const auto t1 = clock::now();
  const std::uint64_t c1 = CycleClock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return static_cast<double>(c1 - c0) / ns * 1e9;
#else
  return 1e9;  // steady_clock ticks are nanoseconds on the supported targets
#endif
}

}  // namespace

double CycleClock::frequency_hz() noexcept {
  static const double hz = calibrate_hz();
  return hz;
}

double CycleClock::to_ns(std::uint64_t cycles) noexcept {
  return static_cast<double>(cycles) / frequency_hz() * 1e9;
}

double CycleClock::to_us(std::uint64_t cycles) noexcept {
  return to_ns(cycles) / 1e3;
}

std::uint64_t CycleClock::from_ns(double ns) noexcept {
  return static_cast<std::uint64_t>(ns * frequency_hz() / 1e9);
}

namespace {

std::uint64_t calibrate_timer_overhead() noexcept {
  constexpr int kIters = 4096;
  // Warm up.
  for (int i = 0; i < 256; ++i) (void)CycleClock::now();
  const std::uint64_t t0 = CycleClock::now();
  for (int i = 0; i < kIters; ++i) {
    volatile std::uint64_t sink = CycleClock::now();
    (void)sink;
  }
  const std::uint64_t t1 = CycleClock::now();
  return (t1 - t0) / kIters;
}

}  // namespace

std::uint64_t CycleClock::timer_overhead() noexcept {
  static const std::uint64_t overhead = calibrate_timer_overhead();
  return overhead;
}

}  // namespace speedybox::util
