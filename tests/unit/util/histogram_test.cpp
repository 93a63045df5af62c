#include "util/histogram.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace speedybox::util {
namespace {

TEST(SampleRecorder, BasicStats) {
  SampleRecorder rec;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) rec.add(v);
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_DOUBLE_EQ(rec.sum(), 10.0);
  EXPECT_DOUBLE_EQ(rec.mean(), 2.5);
}

TEST(SampleRecorder, PercentileNearestRank) {
  SampleRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(rec.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(rec.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(rec.percentile(0), 1.0);
}

TEST(SampleRecorder, PercentileUnsortedInsertOrder) {
  SampleRecorder rec;
  for (const double v : {9.0, 1.0, 5.0, 3.0, 7.0}) rec.add(v);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 5.0);
}

TEST(SampleRecorder, AddAfterPercentileStillCorrect) {
  SampleRecorder rec;
  rec.add(10.0);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 10.0);
  rec.add(1.0);
  rec.add(2.0);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 2.0);
}

TEST(SampleRecorder, EmptyThrows) {
  const SampleRecorder rec;
  EXPECT_THROW(rec.percentile(50), std::out_of_range);
}

TEST(SampleRecorder, PercentileClampsOutOfRangeP) {
  SampleRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.add(i);
  EXPECT_DOUBLE_EQ(rec.percentile(-5), rec.percentile(0));
  EXPECT_DOUBLE_EQ(rec.percentile(250), rec.percentile(100));
}

TEST(LogHistogram, ApproximatePercentiles) {
  LogHistogram hist;
  for (int i = 1; i <= 10000; ++i) hist.add(i);
  EXPECT_EQ(hist.count(), 10000u);
  // Eighth-octave buckets: ≤ ~9% relative error.
  EXPECT_NEAR(hist.percentile(50), 5000.0, 5000.0 * 0.10);
  EXPECT_NEAR(hist.percentile(99), 9900.0, 9900.0 * 0.10);
}

TEST(LogHistogram, MeanIsExact) {
  LogHistogram hist;
  for (const double v : {2.0, 4.0, 6.0}) hist.add(v);
  EXPECT_DOUBLE_EQ(hist.mean(), 4.0);
}

TEST(LogHistogram, EmptyIsZero) {
  const LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(LogHistogram, PercentileEndpointsClampAndOrder) {
  LogHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.add(i);
  // p is clamped to [0, 100]; endpoints bracket the distribution within
  // bucket resolution.
  EXPECT_DOUBLE_EQ(hist.percentile(-10), hist.percentile(0));
  EXPECT_DOUBLE_EQ(hist.percentile(200), hist.percentile(100));
  EXPECT_LE(hist.percentile(0), hist.percentile(50));
  EXPECT_LE(hist.percentile(50), hist.percentile(100));
  EXPECT_NEAR(hist.percentile(100), 1000.0, 1000.0 * 0.10);
}

TEST(LogHistogram, MergeDisjointRanges) {
  LogHistogram low, high;
  for (int i = 1; i <= 100; ++i) low.add(i);
  for (int i = 10000; i <= 10100; ++i) high.add(i);
  low.merge(high);
  EXPECT_EQ(low.count(), 201u);
  // Lower half of the merged mass is the small range, upper half the big.
  EXPECT_NEAR(low.percentile(25), 50.0, 50.0 * 0.15);
  EXPECT_NEAR(low.percentile(75), 10050.0, 10050.0 * 0.10);
}

TEST(LogHistogram, MergeThenPercentileEqualsSingleHistogram) {
  // Bucket math is deterministic, so merged percentiles must equal the
  // single-histogram percentiles exactly — not just approximately.
  LogHistogram a, b, all;
  for (int i = 1; i <= 5000; ++i) {
    ((i % 3 == 0) ? a : b).add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogram, FromRawRoundTrip) {
  // Accumulating raw buckets through the static geometry then rebuilding
  // must reproduce the directly built histogram (the telemetry subsystem's
  // atomic mirror relies on this).
  LogHistogram direct;
  std::vector<std::uint64_t> raw(
      static_cast<std::size_t>(LogHistogram::raw_bucket_count()), 0);
  double sum = 0.0;
  for (const double v : {0.5, 1.0, 3.0, 17.0, 900.0, 1e6, 1e18}) {
    direct.add(v);
    ++raw[static_cast<std::size_t>(LogHistogram::raw_bucket_index(v))];
    sum += v;
  }
  const LogHistogram rebuilt = LogHistogram::from_raw(
      raw.data(), static_cast<int>(raw.size()), sum);
  EXPECT_EQ(rebuilt.count(), direct.count());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), direct.mean());
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(rebuilt.percentile(p), direct.percentile(p));
  }
}

TEST(LogHistogram, FromRawShortPrefixTreatsTailAsZero) {
  std::vector<std::uint64_t> raw(4, 0);
  raw[0] = 2;  // two values in [1, 2^(1/8))
  const LogHistogram hist = LogHistogram::from_raw(raw.data(), 4, 2.2);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1.1);
  EXPECT_LT(hist.percentile(100), 2.0);
}

TEST(LogHistogram, PercentileIsNearestRank) {
  // Rank max(1, ceil(p/100 * n)), as SampleRecorder: a lone sample is every
  // percentile, and p50 of {1, 1000} is the lower sample.
  LogHistogram one;
  one.add(1000.0);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_NEAR(one.percentile(p), 1000.0, 1000.0 * 0.05) << "p=" << p;
  }
  LogHistogram two;
  two.add(1.0);
  two.add(1000.0);
  EXPECT_LT(two.percentile(50), 2.0);
  EXPECT_NEAR(two.percentile(51), 1000.0, 1000.0 * 0.05);
}

TEST(LogHistogram, SinceIsTheHistogramOfLaterValues) {
  LogHistogram cumulative;
  for (int i = 1; i <= 700; ++i) cumulative.add(i * 3.0);
  const LogHistogram snapshot = cumulative;
  LogHistogram later;
  for (int i = 1; i <= 300; ++i) {
    cumulative.add(i * 50.0);
    later.add(i * 50.0);
  }
  const LogHistogram window = cumulative.since(snapshot);
  EXPECT_EQ(window.count(), later.count());
  EXPECT_DOUBLE_EQ(window.sum(), later.sum());
  // The value at every rank agrees, so every bucket does.
  for (std::uint64_t rank = 1; rank <= later.count(); ++rank) {
    const double p = 100.0 * static_cast<double>(rank) /
                     static_cast<double>(later.count());
    ASSERT_DOUBLE_EQ(window.percentile(p), later.percentile(p))
        << "rank " << rank;
  }
}

TEST(LogHistogram, SinceEmptyIsIdentity) {
  LogHistogram hist;
  for (const double v : {0.5, 3.0, 17.0, 900.0, 1e6}) hist.add(v);
  const LogHistogram same = hist.since(LogHistogram{});
  EXPECT_EQ(same.count(), hist.count());
  EXPECT_DOUBLE_EQ(same.sum(), hist.sum());
  for (const double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    EXPECT_DOUBLE_EQ(same.percentile(p), hist.percentile(p)) << "p=" << p;
  }
  EXPECT_EQ(hist.since(hist).count(), 0u);
}

}  // namespace
}  // namespace speedybox::util
