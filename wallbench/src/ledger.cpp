#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace wallbench {

namespace {

/// 1-based nearest rank of percentile p over n samples. The small slack
/// keeps p/100 * n from rounding up past an exact integer (0.99 * 1000).
std::uint64_t nearest_rank(std::uint64_t n, double p) {
  const double x = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n);
  return static_cast<std::uint64_t>(std::ceil(x - 1e-9 * std::max(1.0, x)));
}

}  // namespace

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::size_t rank = nearest_rank(values.size(), p);
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::uint64_t samples_beyond(std::uint64_t n, double p) {
  const std::uint64_t rank = nearest_rank(n, p);
  return n > rank ? n - rank : 0;
}

double highest_supported_percentile(std::uint64_t n) {
  double best = 50.0;
  double tail = 10.0;  // 100 - p: 10, 1, 0.1, ...
  for (int step = 0; step < 9; ++step, tail /= 10.0) {
    const double p = 100.0 - tail;
    if (samples_beyond(n, p) < 10) break;
    best = p;
  }
  return best;
}

PercentileReport report(std::vector<double> values) {
  PercentileReport out;
  out.samples = values.size();
  out.failed = static_cast<std::uint64_t>(
      std::count(values.begin(), values.end(), kFailedLatency));
  out.p50 = percentile(values, 50.0);
  out.p99 = percentile(values, 99.0);
  out.tail_p = highest_supported_percentile(out.samples);
  out.tail = percentile(values, out.tail_p);
  out.tail_beyond = samples_beyond(out.samples, out.tail_p);
  return out;
}

std::uint64_t output_digest(const net::Packet& packet) {
  if (packet.dropped()) return 0xD409'D409'D409'D409ULL;
  std::uint64_t hash = 0xCBF2'9CE4'8422'2325ULL;  // FNV-1a 64
  for (const std::uint8_t byte : packet.bytes()) {
    hash = (hash ^ byte) * 0x0000'0100'0000'01B3ULL;
  }
  return hash ^ (static_cast<std::uint64_t>(packet.size()) << 48);
}

std::uint32_t SpanLog::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::open(std::uint32_t name, std::uint32_t parent,
                            std::uint64_t request, std::int64_t start_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    current_ = Span::kNoParent;
    return Span::kNoParent;
  }
  spans_.push_back({name, parent, request, start_ns, start_ns});
  current_ = static_cast<std::uint32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::uint32_t index, std::int64_t end_ns) {
  if (index != Span::kNoParent) spans_[index].end_ns = end_ns;
}

void SpanLog::child(std::uint32_t name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (current_ == Span::kNoParent || spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(
      {name, current_, spans_[current_].request, start_ns, end_ns});
}

std::int64_t SpanLog::total_ns(std::uint32_t name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return total;
}

std::int64_t SpanLog::self_ns(std::uint32_t name) const {
  std::int64_t self = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      self += span.end_ns - span.start_ns;
    } else if (span.parent != Span::kNoParent &&
               spans_[span.parent].name == name) {
      self -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::vector<double> SpanLog::durations_us(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << names_[span.name]
        << "\",\"parent\":"
        << (span.parent == Span::kNoParent
                ? std::string("-1")
                : std::to_string(span.parent))
        << ",\"request\":" << span.request
        << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace wallbench
