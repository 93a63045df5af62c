// Unit tests for the measurement methodology library (bench/bench_method):
// everything runs on synthetic loss/latency functions — no packets, no
// timing — so convergence properties are exact.
#include "bench_method.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/cycle_clock.hpp"
#include "util/histogram.hpp"

namespace speedybox::bench {
namespace {

// -- aggregate_trials --------------------------------------------------------

TEST(AggregateTrials, EmptyReturnsZeroCount) {
  const TrialAggregate agg = aggregate_trials({});
  EXPECT_EQ(agg.count, 0);
  EXPECT_EQ(agg.best, 0.0);
  EXPECT_EQ(agg.rel_spread, 0.0);
}

TEST(AggregateTrials, SingleScoreHasZeroSpread) {
  const TrialAggregate agg = aggregate_trials({3.5});
  EXPECT_EQ(agg.count, 1);
  EXPECT_DOUBLE_EQ(agg.best, 3.5);
  EXPECT_DOUBLE_EQ(agg.worst, 3.5);
  EXPECT_DOUBLE_EQ(agg.median, 3.5);
  EXPECT_DOUBLE_EQ(agg.mean, 3.5);
  EXPECT_DOUBLE_EQ(agg.rel_spread, 0.0);
}

TEST(AggregateTrials, SpreadAndMedianOddCount) {
  const TrialAggregate agg = aggregate_trials({4.0, 5.0, 2.0});
  EXPECT_EQ(agg.count, 3);
  EXPECT_DOUBLE_EQ(agg.best, 5.0);
  EXPECT_DOUBLE_EQ(agg.worst, 2.0);
  EXPECT_DOUBLE_EQ(agg.median, 4.0);
  EXPECT_NEAR(agg.mean, 11.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(agg.rel_spread, (5.0 - 2.0) / 5.0);
}

TEST(AggregateTrials, MedianEvenCountAveragesMiddlePair) {
  const TrialAggregate agg = aggregate_trials({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(agg.median, 2.5);
}

TEST(AggregateTrials, AllZerosDoesNotDivideByZero) {
  const TrialAggregate agg = aggregate_trials({0.0, 0.0});
  EXPECT_EQ(agg.count, 2);
  EXPECT_DOUBLE_EQ(agg.rel_spread, 0.0);
}

// -- best_of -----------------------------------------------------------------

TEST(BestOf, WarmupRunsAreDiscardedUnmeasured) {
  // Probe returns its call index: warmups see 0,1; measured trials see
  // 2,3,4 — so the best must be 4 and scores_out must hold exactly the
  // measured three.
  int calls = 0;
  std::vector<double> scores;
  const TrialPolicy policy{2, 3};
  const int best = best_of<int>(
      policy, [&] { return calls++; },
      [](const int& v) { return static_cast<double>(v); }, &scores);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(best, 4);
  EXPECT_EQ(scores, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(BestOf, KeepsHighestScoreNotLatest) {
  const std::vector<double> sequence{0.0, 7.0, 3.0, 5.0};
  std::size_t next = 0;
  const TrialPolicy policy{1, 3};
  const double best = best_of<double>(
      policy, [&] { return sequence.at(next++); },
      [](const double& v) { return v; });
  EXPECT_DOUBLE_EQ(best, 7.0);
}

TEST(BestOf, ZeroTrialsStillMeasuresOnce) {
  int calls = 0;
  const TrialPolicy policy{0, 0};
  best_of<int>(policy, [&] { return calls++; },
               [](const int& v) { return static_cast<double>(v); });
  EXPECT_EQ(calls, 1);
}

// -- zero_loss_max_rate ------------------------------------------------------

/// Hard step: loss 0 below the knee, 1 at or above it.
std::function<double(double)> step_loss(double knee) {
  return [knee](double rate) { return rate >= knee ? 1.0 : 0.0; };
}

TEST(ZeroLossMaxRate, ConvergesOnMonotoneStep) {
  RateSearchConfig config;
  config.min_rate = 0.0;
  config.max_rate = 10.0;
  config.resolution = 0.01;  // bracket closes within 0.1 of the knee
  const RateSearchResult result = zero_loss_max_rate(step_loss(6.4), config);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.rate, 6.4);
  EXPECT_GT(result.rate, 6.4 - 10.0 * config.resolution * 2);
  EXPECT_DOUBLE_EQ(result.loss_at_rate, 0.0);
}

TEST(ZeroLossMaxRate, EverythingPassesReturnsMaxImmediately) {
  RateSearchConfig config;
  config.max_rate = 5.0;
  const RateSearchResult result = zero_loss_max_rate(
      [](double) { return 0.0; }, config);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.rate, 5.0);
  EXPECT_LE(result.iterations, 2);
}

TEST(ZeroLossMaxRate, NothingPassesReturnsMinRate) {
  RateSearchConfig config;
  config.min_rate = 1.0;
  config.max_rate = 8.0;
  const RateSearchResult result = zero_loss_max_rate(
      [](double) { return 1.0; }, config);
  EXPECT_DOUBLE_EQ(result.rate, 1.0);
  EXPECT_DOUBLE_EQ(result.loss_at_rate, 1.0);
}

TEST(ZeroLossMaxRate, LossToleranceAdmitsSmallLoss) {
  // Loss ramps linearly: 0 at rate 0 -> 0.1 at rate 10. With tolerance
  // 0.05 the passing region is [0, 5].
  RateSearchConfig config;
  config.max_rate = 10.0;
  config.loss_tolerance = 0.05;
  config.resolution = 0.005;
  const RateSearchResult result = zero_loss_max_rate(
      [](double rate) { return rate / 100.0; }, config);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.rate, 5.0, 10.0 * config.resolution * 2);
  EXPECT_LE(result.loss_at_rate, 0.05);
}

TEST(ZeroLossMaxRate, NoisyLossStillBracketsKnee) {
  // Deterministic "noise": +-0.0005 jitter below the knee stays under the
  // tolerance, so the search treats it as passing; above the knee the loss
  // is far beyond any jitter.
  RateSearchConfig config;
  config.max_rate = 10.0;
  config.loss_tolerance = 0.001;
  config.resolution = 0.01;
  int flip = 0;
  const RateSearchResult result = zero_loss_max_rate(
      [&](double rate) {
        const double jitter = (flip++ % 2 == 0) ? 0.0005 : 0.0;
        return rate >= 7.0 ? 0.5 : jitter;
      },
      config);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.rate, 7.0);
  EXPECT_GT(result.rate, 6.5);
}

TEST(ZeroLossMaxRate, IterationBudgetExhaustionReportsNotConverged) {
  RateSearchConfig config;
  config.max_rate = 1024.0;
  config.resolution = 1e-9;  // unreachable with 3 iterations
  config.max_iterations = 3;
  const RateSearchResult result = zero_loss_max_rate(step_loss(512.0),
                                                     config);
  EXPECT_FALSE(result.converged);
  EXPECT_LE(result.iterations, 3 + 2);  // bisections + bracket probes
  EXPECT_LT(result.rate, 512.0);       // still returns a passing rate
}

TEST(ZeroLossMaxRate, ReturnedRateAlwaysPassed) {
  // Whatever the knee, the reported rate must be one the probe accepted.
  for (const double knee : {0.3, 1.7, 4.9, 9.99}) {
    RateSearchConfig config;
    config.max_rate = 10.0;
    const RateSearchResult result = zero_loss_max_rate(step_loss(knee),
                                                       config);
    EXPECT_LE(result.loss_at_rate, config.loss_tolerance) << knee;
    EXPECT_LT(result.rate, knee) << knee;
  }
}

// -- curve_points ------------------------------------------------------------

TEST(CurvePoints, LinearEndpointsIncludedAndSorted) {
  const std::vector<double> points =
      curve_points(1.0, 3.0, 5, Spacing::kLinear);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_DOUBLE_EQ(points.front(), 1.0);
  EXPECT_DOUBLE_EQ(points.back(), 3.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i], points[i - 1]);
  }
  EXPECT_NEAR(points[2], 2.0, 1e-12);
}

TEST(CurvePoints, GeometricRatiosAreConstant) {
  const std::vector<double> points =
      curve_points(1.0, 8.0, 4, Spacing::kGeometric);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_NEAR(points[1] / points[0], 2.0, 1e-9);
  EXPECT_NEAR(points[2] / points[1], 2.0, 1e-9);
  EXPECT_NEAR(points[3] / points[2], 2.0, 1e-9);
}

TEST(CurvePoints, GeometricWithNonPositiveLoFallsBackToLinear) {
  const std::vector<double> points =
      curve_points(0.0, 4.0, 3, Spacing::kGeometric);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[1], 2.0);  // linear midpoint, not geometric
}

TEST(CurvePoints, FewerThanTwoPointsCollapsesToHi) {
  EXPECT_EQ(curve_points(1.0, 9.0, 1, Spacing::kLinear),
            (std::vector<double>{9.0}));
  EXPECT_EQ(curve_points(1.0, 9.0, 0, Spacing::kGeometric),
            (std::vector<double>{9.0}));
}

TEST(CurvePoints, EqualEndpointsCollapseToOnePoint) {
  EXPECT_EQ(curve_points(2.0, 2.0, 6, Spacing::kLinear),
            (std::vector<double>{2.0}));
}

// -- summarize / latency_json ------------------------------------------------

TEST(Summarize, EmptyHistogramIsAllZeros) {
  const util::LogHistogram cycles;
  const LatencySummary summary = summarize(cycles);
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.p50, 0.0);
  EXPECT_EQ(summary.p999, 0.0);
}

TEST(Summarize, PercentilesComeFromTheHistogramInMicroseconds) {
  // 1..1000 µs in cycles: percentiles within the histogram's half-bucket
  // error, the mean exact up to cycle rounding.
  util::LogHistogram cycles;
  for (int i = 1; i <= 1000; ++i) {
    cycles.add(static_cast<double>(util::CycleClock::from_ns(i * 1000.0)));
  }
  const LatencySummary summary = summarize(cycles);
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_NEAR(summary.p50, 500.0, 500.0 * 0.05);
  EXPECT_NEAR(summary.p99, 990.0, 990.0 * 0.05);
  EXPECT_NEAR(summary.p999, 999.0, 999.0 * 0.05);
  EXPECT_NEAR(summary.mean, 500.5, 0.01);
}

TEST(LatencyJson, CarriesAllFields) {
  LatencySummary summary;
  summary.p50 = 1.0;
  summary.p99 = 2.0;
  summary.p999 = 3.0;
  summary.mean = 1.5;
  summary.count = 7;
  const telemetry::Json json = latency_json(summary);
  ASSERT_TRUE(json.is_object());
  EXPECT_DOUBLE_EQ(json.find("p50")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(json.find("p999")->as_number(), 3.0);
  EXPECT_EQ(json.find("count")->as_integer(), 7u);
}

// -- environment capture -----------------------------------------------------

TEST(EnvironmentJson, RequiredKeysPresent) {
  const telemetry::Json env = environment_json();
  ASSERT_TRUE(env.is_object());
  ASSERT_NE(env.find("cpu_ghz"), nullptr);
  EXPECT_GT(env.find("cpu_ghz")->as_number(), 0.0);
  ASSERT_NE(env.find("git_describe"), nullptr);
  EXPECT_FALSE(env.find("git_describe")->as_string().empty());
  ASSERT_NE(env.find("hardware_concurrency"), nullptr);
  // Shape fields omitted when not applicable.
  EXPECT_EQ(env.find("shards"), nullptr);
  EXPECT_EQ(env.find("batch_size"), nullptr);
}

TEST(EnvironmentJson, ShapeFieldsAppearWhenSet) {
  const telemetry::Json env = environment_json(4, 32);
  EXPECT_EQ(env.find("shards")->as_integer(), 4u);
  EXPECT_EQ(env.find("batch_size")->as_integer(), 32u);
}

TEST(GitDescribe, NeverNullNeverEmpty) {
  ASSERT_NE(git_describe(), nullptr);
  EXPECT_GT(std::string(git_describe()).size(), 0u);
}

}  // namespace
}  // namespace speedybox::bench
