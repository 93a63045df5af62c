// Latency statistics. SampleRecorder stores every sample for exact
// percentiles: per-flow times, bounded by flow count. LogHistogram is
// fixed-size, for per-packet distributions: shards merge by adding buckets,
// and the window of a cumulative histogram is since() the last snapshot.
#pragma once

#include <cstdint>
#include <vector>

namespace speedybox::util {

/// Records every sample; supports exact percentiles. Use for per-flow
/// statistics (Fig. 9 CDFs) where sample counts are modest.
class SampleRecorder {
 public:
  void add(double value);
  void clear() noexcept { samples_.clear(); sorted_ = true; }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double sum() const noexcept;
  double mean() const noexcept;

  /// Exact percentile by rank (nearest-rank method), p clamped to
  /// [0, 100]: p=0 returns the minimum sample, p=100 the maximum.
  /// Throws std::out_of_range when empty: an empty distribution has no
  /// percentiles. LogHistogram, by contrast, reports 0 when empty.
  double percentile(double p) const;

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Log2-bucketed histogram: O(1) insert, fixed size, approximate
/// percentiles. Bucket i covers [2^(i/8), 2^((i+1)/8)) — eighth-octave
/// resolution; every value below 1.0 lands in bucket 0, so record integer
/// cycles rather than fractional microseconds.
class LogHistogram {
 public:
  LogHistogram();

  void add(double value) noexcept;
  /// Absorb another histogram's buckets (per-shard result merging). Exact:
  /// merged percentiles equal those of one histogram fed every value.
  void merge(const LogHistogram& other) noexcept;
  /// The values added after `earlier`, a prefix snapshot of this cumulative
  /// histogram (an empty `earlier` returns a copy): buckets, count and sum
  /// subtracted. Window readers keep the last tick's histogram as `earlier`.
  LogHistogram since(const LogHistogram& earlier) const;
  std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank percentile (SampleRecorder's rank), p clamped to [0, 100]:
  /// the midpoint of the bucket holding that sample — for values ≥ 1 within
  /// ~4.5% of it (≤ 9% is the documented bound). 0 when empty.
  double percentile(double p) const noexcept;
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Raw bucket geometry, exposed so external single-writer mirrors (the
  /// telemetry subsystem's atomic per-shard histograms) can accumulate into
  /// the same buckets and materialize a LogHistogram on snapshot.
  static constexpr int raw_bucket_count() noexcept { return kBuckets; }
  /// Exact sum of the recorded values.
  double sum() const noexcept { return sum_; }
  static int raw_bucket_index(double value) noexcept;
  /// Rebuild from externally accumulated raw buckets. `bucket_counts` holds
  /// `n` leading buckets (missing trailing buckets are zero); `sum` is the
  /// exact sum of the recorded values (kept for mean()).
  static LogHistogram from_raw(const std::uint64_t* bucket_counts, int n,
                               double sum);

 private:
  static constexpr int kSubBuckets = 8;   // buckets per octave
  static constexpr int kBuckets = 64 * kSubBuckets;

  double bucket_low(int index) const noexcept;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace speedybox::util
