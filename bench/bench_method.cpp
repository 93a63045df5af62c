#include "bench_method.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/cycle_clock.hpp"
#include "util/histogram.hpp"

namespace speedybox::bench {

TrialAggregate aggregate_trials(std::vector<double> scores) {
  TrialAggregate aggregate;
  aggregate.count = static_cast<int>(scores.size());
  if (scores.empty()) return aggregate;
  std::sort(scores.begin(), scores.end());
  aggregate.worst = scores.front();
  aggregate.best = scores.back();
  const std::size_t n = scores.size();
  aggregate.median = n % 2 == 1
                         ? scores[n / 2]
                         : (scores[n / 2 - 1] + scores[n / 2]) / 2.0;
  double sum = 0.0;
  for (const double score : scores) sum += score;
  aggregate.mean = sum / static_cast<double>(n);
  aggregate.rel_spread =
      aggregate.best > 0.0
          ? (aggregate.best - aggregate.worst) / aggregate.best
          : 0.0;
  return aggregate;
}

RateSearchResult zero_loss_max_rate(
    const std::function<double(double)>& loss_at,
    const RateSearchConfig& config) {
  RateSearchResult result;
  const double span = std::max(config.max_rate, 1e-12);
  double lo = config.min_rate;   // highest rate known to pass (once found)
  double hi = config.max_rate;   // lowest rate known to fail (once found)
  bool lo_passes = false;

  // Probe the endpoints first: if max_rate already passes, the search is
  // done in one trial; if min_rate already fails there is no zero-loss
  // rate in the bracket and min_rate is reported with its loss.
  const double hi_loss = loss_at(hi);
  ++result.iterations;
  if (hi_loss <= config.loss_tolerance) {
    result.rate = hi;
    result.loss_at_rate = hi_loss;
    result.converged = true;
    return result;
  }
  const double lo_loss = loss_at(lo);
  ++result.iterations;
  if (lo_loss > config.loss_tolerance) {
    result.rate = lo;
    result.loss_at_rate = lo_loss;
    result.converged = true;  // converged onto "nothing passes"
    return result;
  }
  lo_passes = true;
  result.rate = lo;
  result.loss_at_rate = lo_loss;

  while (result.iterations < config.max_iterations &&
         (hi - lo) > config.resolution * span) {
    const double mid = lo + (hi - lo) / 2.0;
    const double mid_loss = loss_at(mid);
    ++result.iterations;
    if (mid_loss <= config.loss_tolerance) {
      lo = mid;
      result.rate = mid;
      result.loss_at_rate = mid_loss;
    } else {
      hi = mid;
    }
  }
  result.converged = (hi - lo) <= config.resolution * span && lo_passes;
  return result;
}

std::vector<double> curve_points(double lo, double hi, int points,
                                 Spacing spacing) {
  if (hi < lo) std::swap(lo, hi);
  if (points < 2 || lo == hi) return {hi};
  if (spacing == Spacing::kGeometric && lo <= 0.0) {
    spacing = Spacing::kLinear;  // geometric needs a positive start
  }
  std::vector<double> result;
  result.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    if (spacing == Spacing::kGeometric) {
      result.push_back(lo * std::pow(hi / lo, t));
    } else {
      result.push_back(lo + (hi - lo) * t);
    }
  }
  result.back() = hi;  // never let rounding clip the endpoint
  return result;
}

double percentile_us(const util::LogHistogram& cycles, double p) {
  return util::CycleClock::to_us(
      static_cast<std::uint64_t>(cycles.percentile(p)));
}

LatencySummary summarize(const util::LogHistogram& cycles) {
  LatencySummary summary;
  summary.count = cycles.count();
  if (summary.count == 0) return summary;
  summary.p50 = percentile_us(cycles, 50);
  summary.p99 = percentile_us(cycles, 99);
  summary.p999 = percentile_us(cycles, 99.9);
  summary.mean =
      util::CycleClock::to_us(static_cast<std::uint64_t>(cycles.mean()));
  return summary;
}

telemetry::Json latency_json(const LatencySummary& summary) {
  using telemetry::Json;
  Json json = Json::object();
  json.set("p50", Json::number(summary.p50));
  json.set("p99", Json::number(summary.p99));
  json.set("p999", Json::number(summary.p999));
  json.set("mean", Json::number(summary.mean));
  json.set("count", Json::integer(summary.count));
  return json;
}

const char* git_describe() {
#ifdef SPEEDYBOX_GIT_DESCRIBE
  return SPEEDYBOX_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

telemetry::Json environment_json(std::size_t shards,
                                 std::size_t batch_size) {
  using telemetry::Json;
  Json env = Json::object();
  env.set("cpu_ghz", Json::number(util::CycleClock::frequency_hz() / 1e9));
  env.set("git_describe", Json::string(git_describe()));
  env.set("hardware_concurrency",
          Json::integer(std::thread::hardware_concurrency()));
  if (shards > 0) env.set("shards", Json::integer(shards));
  if (batch_size > 0) env.set("batch_size", Json::integer(batch_size));
  return env;
}

}  // namespace speedybox::bench
