#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace speedybox::util {

void SampleRecorder::add(double value) {
  samples_.push_back(value);
  sorted_ = false;
}

double SampleRecorder::sum() const noexcept {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleRecorder::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum() / static_cast<double>(samples_.size());
}

void SampleRecorder::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleRecorder::percentile(double p) const {
  if (samples_.empty()) {
    throw std::out_of_range("SampleRecorder::percentile: empty");
  }
  sort_if_needed();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

LogHistogram::LogHistogram() : buckets_(kBuckets, 0) {}

int LogHistogram::raw_bucket_index(double value) noexcept {
  if (value < 1.0) return 0;
  const int index = static_cast<int>(std::log2(value) * kSubBuckets);
  return std::clamp(index, 0, kBuckets - 1);
}

LogHistogram LogHistogram::from_raw(const std::uint64_t* bucket_counts,
                                    int n, double sum) {
  LogHistogram hist;
  const int limit = std::min(n, kBuckets);
  for (int i = 0; i < limit; ++i) {
    hist.buckets_[static_cast<std::size_t>(i)] = bucket_counts[i];
    hist.count_ += bucket_counts[i];
  }
  hist.sum_ = sum;
  return hist;
}

double LogHistogram::bucket_low(int index) const noexcept {
  return std::exp2(static_cast<double>(index) / kSubBuckets);
}

void LogHistogram::add(double value) noexcept {
  ++buckets_[static_cast<std::size_t>(raw_bucket_index(value))];
  ++count_;
  sum_ += value;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

LogHistogram LogHistogram::since(const LogHistogram& earlier) const {
  LogHistogram window = *this;
  for (int i = 0; i < kBuckets; ++i) {
    window.buckets_[static_cast<std::size_t>(i)] -=
        earlier.buckets_[static_cast<std::size_t>(i)];
  }
  window.count_ -= earlier.count_;
  window.sum_ -= earlier.sum_;
  return window;
}

double LogHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= target) {
      // Midpoint of the bucket in linear space.
      return (bucket_low(i) + bucket_low(i + 1)) / 2.0;
    }
  }
  return bucket_low(kBuckets);
}

}  // namespace speedybox::util
