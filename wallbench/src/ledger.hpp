// Measurement primitives of the wall-clock benchmark: the percentile and
// open-loop rules, output digests for the correctness check, and the
// in-memory span log the traced run writes out at the end.
//
// Everything here is a pure function of its inputs (clocks are passed in as
// nanosecond stamps), so the unit suite checks the rules on synthetic data.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"

namespace wallbench {

namespace net = speedybox::net;

/// The benchmark's one clock: steady_clock, in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in [0, 100]) of `values`, reordering them.
/// Failed samples are +inf, so they sort above every real latency and
/// miss every limit. Empty input returns 0.
double percentile(std::vector<double>& values, double p);

/// How many of `n` samples lie strictly above the nearest-rank percentile p.
std::uint64_t samples_beyond(std::uint64_t n, double p);

/// The highest percentile of the ladder 90, 99, 99.9, ... that still has at
/// least ten samples beyond it; 50 when even p90 lacks them.
double highest_supported_percentile(std::uint64_t n);

struct PercentileReport {
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;  // +inf samples
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_p = 0.0;  // highest_supported_percentile(samples)
  double tail = 0.0;
  std::uint64_t tail_beyond = 0;
};

/// Median, p99 and the highest supported percentile of `values`.
PercentileReport report(std::vector<double> values);

/// Fixed-rate open-loop schedule: packet i is due at start + i / rate. Due
/// times never move, whatever the system does, so a stall is charged to
/// every packet scheduled behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_pps, std::int64_t start_ns)
      : ns_per_packet_(1e9 / rate_pps), start_ns_(start_ns) {}
  std::int64_t due_ns(std::uint64_t index) const {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(index) *
                                     ns_per_packet_);
  }

 private:
  double ns_per_packet_;
  std::int64_t start_ns_;
};

/// Latency of one packet in µs, timed from its due time (not from when the
/// generator got round to sending it) to the completion the caller observed.
/// A failed packet is +inf.
inline double latency_us(std::int64_t due_ns, std::int64_t done_ns,
                         bool failed) {
  return failed ? kFailedLatency
                : static_cast<double>(done_ns - due_ns) / 1e3;
}

/// How late the generator ran for one batch: the gap between the moment
/// it could have handed the batch over (its first packet due, and the
/// previous call returned plus the benchmark's own bookkeeping done) and
/// the moment it did. System queueing is excluded; it belongs to latency.
inline double generator_lag_us(std::int64_t pickup_ns, std::int64_t due_ns,
                               std::int64_t ready_ns) {
  const std::int64_t could = due_ns > ready_ns ? due_ns : ready_ns;
  return pickup_ns > could ? static_cast<double>(pickup_ns - could) / 1e3
                           : 0.0;
}

/// Post-chain identity of one output packet: a dropped packet is its drop
/// verdict alone (the chain stops there, so its bytes are not an output);
/// a delivered packet is a 64-bit hash of its bytes and length.
std::uint64_t output_digest(const net::Packet& packet);

/// One span: a timed interval of one layer. `parent` indexes the span log
/// (kNoParent for a root); `request` groups the spans of one request (the
/// batch index on runner workloads, the phase on sharded ones).
struct Span {
  static constexpr std::uint32_t kNoParent = ~0u;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory, written out once at the end. Single writer. Past
/// `capacity` spans are counted but not stored, so memory stays bounded.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 4'000'000) : capacity_(capacity) {}

  std::uint32_t intern(std::string_view name);

  /// Opens a span and makes it the parent of later child() spans. Returns
  /// its index (kNoParent when the log is full).
  std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t request, std::int64_t start_ns);
  void close(std::uint32_t index, std::int64_t end_ns);
  /// A closed span under the most recently opened one, same request.
  void child(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Total duration of every span named `name`.
  std::int64_t total_ns(std::uint32_t name) const;
  /// Self time of the spans named `name`: their total duration minus the
  /// part of it their direct children cover.
  std::int64_t self_ns(std::uint32_t name) const;
  /// Durations of every span named `name`, in µs.
  std::vector<double> durations_us(std::uint32_t name) const;

  /// One JSON object per line: id, name, parent (-1 for a root), request,
  /// start_ns, end_ns. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t current_ = Span::kNoParent;
  std::uint64_t dropped_ = 0;
};

}  // namespace wallbench
