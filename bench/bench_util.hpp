// Shared harness for the figure/table reproduction benchmarks.
//
// Each bench binary rebuilds the paper's experimental setup (workload +
// chain + platform), runs the four configurations {BESS, ONVM} ×
// {Original, SpeedyBox}, and prints the same rows/series the paper reports.
// Absolute numbers are machine-dependent; EXPERIMENTS.md compares shapes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_method.hpp"
#include "bench_schema.hpp"
#include "nf/ip_filter.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "telemetry/json.hpp"
#include "trace/workload.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::bench {

using ChainFactory = std::function<std::unique_ptr<runtime::ServiceChain>()>;

struct ConfigResult {
  /// Platform CPU cycles per packet (measured work + per-NF framework
  /// overhead) — what the paper's platform-level cycle counts report.
  double init_cycles = 0;  // initial packets
  double sub_cycles = 0;   // subsequent packets
  double sub_latency_us = 0;     // modeled latency (median), subsequent
  double p50_flow_time_us = 0;   // per-flow processing time median
  double rate_mpps = 0;
  runtime::RunStats stats;
  util::SampleRecorder flow_time_us;
};

/// Extract the common figure-bench measurements from any executor shape
/// after a run() — the Executor-interface half of run_config, reused by
/// benches that build their own executor (sharding, overload sweeps).
inline ConfigResult collect_result(const runtime::Executor& executor,
                                   platform::PlatformKind platform) {
  ConfigResult result;
  result.stats = executor.stats();
  const auto& stats = result.stats;
  // Medians, not means: runs share a noisy core with the host, and a
  // single interrupt inside one packet's measurement shifts a mean far
  // more than it shifts the p50. Empty histograms report 0.
  result.init_cycles = stats.platform_cycles_initial.percentile(50);
  result.sub_cycles = stats.platform_cycles_subsequent.percentile(50);
  result.sub_latency_us = percentile_us(stats.latency_cycles_subsequent, 50);
  result.rate_mpps = stats.rate_mpps(platform);
  return result;
}

inline ConfigResult run_config(const ChainFactory& factory,
                               platform::PlatformKind platform,
                               bool speedybox,
                               const trace::Workload& workload,
                               std::size_t batch_size =
                                   net::kDefaultBatchSize,
                               const runtime::OverloadConfig& overload = {}) {
  auto chain = factory();
  runtime::RunConfig config{platform, speedybox};
  config.batch_size = std::max<std::size_t>(1, batch_size);
  config.cycle_model = true;  // the figures report the platform model
  runtime::ChainRunner runner{*chain, config};
  if (overload.enabled) runner.set_overload_policy(overload);
  // The runner's own batch loop, so each packet's outcome is at hand: a
  // flow's processing time (Fig. 9) is the sum of its packets' modeled
  // latencies.
  std::vector<double> flow_time(workload.flows.size(), 0.0);
  std::vector<net::Packet> burst(config.batch_size);
  std::vector<runtime::PacketOutcome> outcomes;
  net::PacketBatch batch{config.batch_size};
  for (std::size_t offset = 0; offset < workload.packet_count();
       offset += config.batch_size) {
    const std::size_t count =
        std::min(config.batch_size, workload.packet_count() - offset);
    batch.clear();
    for (std::size_t k = 0; k < count; ++k) {
      burst[k] = workload.materialize(offset + k);
      burst[k].set_arrival_cycle(util::CycleClock::now());
      batch.push(&burst[k]);
    }
    runner.process_batch(batch, outcomes);
    for (std::size_t k = 0; k < count; ++k) {
      flow_time[workload.order[offset + k].flow] +=
          util::CycleClock::to_us(outcomes[k].latency_cycles);
    }
  }
  ConfigResult result = collect_result(runner, platform);
  for (const double time_us : flow_time) result.flow_time_us.add(time_us);
  if (result.flow_time_us.count() > 0) {
    result.p50_flow_time_us = result.flow_time_us.percentile(50);
  }
  return result;
}

/// Warmup + best-of-N over run_config (bench_method's TrialPolicy): the
/// shared replacement for the hand-rolled best-of-3 loops — and it never
/// times the first, cold trial. Ranked by rate_mpps (noise only ever slows
/// a run); the per-trial rates come back via `scores_out` for spread
/// reporting.
inline ConfigResult run_config_best(
    const TrialPolicy& policy, const ChainFactory& factory,
    platform::PlatformKind platform, bool speedybox,
    const trace::Workload& workload,
    std::size_t batch_size = net::kDefaultBatchSize,
    const runtime::OverloadConfig& overload = {},
    std::vector<double>* scores_out = nullptr) {
  return best_of<ConfigResult>(
      policy,
      [&] {
        return run_config(factory, platform, speedybox, workload, batch_size,
                          overload);
      },
      [](const ConfigResult& result) { return result.rate_mpps; },
      scores_out);
}

/// An ACL of `rules` entries that never matches the benchmark flows
/// (dst prefixes in 172.31/16): models a realistically sized blacklist
/// whose linear scan is paid by initial packets.
inline std::vector<nf::AclRule> nonmatching_acl(std::size_t rules = 32) {
  std::vector<nf::AclRule> acl;
  acl.reserve(rules);
  for (std::size_t i = 0; i < rules; ++i) {
    acl.push_back(nf::AclRule::drop_dst_prefix(
        net::Ipv4Addr{172, 31, static_cast<std::uint8_t>(i), 0}, 24));
  }
  return acl;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(CPU frequency: %.2f GHz; cycles are measured, hop costs modeled"
              " — see DESIGN.md)\n",
              util::CycleClock::frequency_hz() / 1e9);
  std::printf("================================================================\n");
}

inline double reduction_pct(double original, double speedybox) {
  return original > 0 ? (original - speedybox) / original * 100.0 : 0.0;
}

/// One measured configuration as a JSON row: cycles/packet and latency
/// percentiles (p50/p95/p99), rate, and packet/drop counts. Extra fields
/// (sweep parameters, derived splits) can be set() on the returned value.
inline telemetry::Json config_row(const std::string& label,
                                  const ConfigResult& result) {
  using telemetry::Json;
  Json row = Json::object();
  row.set("config", Json::string(label));
  const runtime::RunStats& stats = result.stats;
  const auto percentiles = [&row](const std::string& prefix, auto value) {
    for (const int p : {50, 95, 99}) {
      row.set(prefix + "_p" + std::to_string(p), Json::number(value(p)));
    }
  };
  row.set("init_cycles_p50", Json::number(result.init_cycles));
  // One subsequent packet = one sample in each of the two histograms.
  if (stats.platform_cycles_subsequent.count() > 0) {
    percentiles("cycles_per_packet", [&stats](int p) {
      return stats.platform_cycles_subsequent.percentile(p);
    });
    percentiles("latency_us", [&stats](int p) {
      return percentile_us(stats.latency_cycles_subsequent, p);
    });
  }
  row.set("rate_mpps", Json::number(result.rate_mpps));
  row.set("packets", Json::integer(result.stats.packets));
  row.set("drops", Json::integer(result.stats.drops));
  const runtime::OverloadStats& overload = result.stats.overload;
  if (overload.offered > 0 || overload.faulted > 0) {
    row.set("offered", Json::integer(overload.offered));
    row.set("admitted", Json::integer(overload.admitted));
    row.set("shed", Json::integer(overload.shed_total()));
    row.set("faulted", Json::integer(overload.faulted));
  }
  return row;
}

/// Machine-readable companion to the printed tables: each bench collects
/// its parameters and per-configuration rows here and write() dumps them as
/// BENCH_<name>.json (one pretty-stable JSON object) next to the binary's
/// cwd, so plotting scripts never have to scrape stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void param(const std::string& key, double value) {
    params_.set(key, telemetry::Json::number(value));
  }
  void param(const std::string& key, const std::string& value) {
    params_.set(key, telemetry::Json::string(value));
  }

  /// Append one arbitrary row (usually config_row() plus extra fields).
  void add(telemetry::Json row) { rows_.push(std::move(row)); }
  /// Convenience: a plain measured configuration with no extra fields.
  void config(const std::string& label, const ConfigResult& result) {
    add(config_row(label, result));
  }

  /// Replace the default environment capture (e.g. to record shards /
  /// batch size — see bench_method's environment_json).
  void environment(telemetry::Json env) { env_ = std::move(env); }

  /// Write BENCH_<name>.json; on failure warns on stderr (benches keep
  /// their stdout contract either way). The document carries the shared
  /// schema (bench_schema.hpp): schema_version + environment capture on
  /// top of params/configs.
  void write() const {
    using telemetry::Json;
    Json root = Json::object();
    root.set("bench", Json::string(name_));
    root.set("schema_version", Json::integer(kBenchSchemaVersion));
    root.set("cpu_ghz",
             Json::number(util::CycleClock::frequency_hz() / 1e9));
    root.set("environment", env_);
    root.set("params", params_);
    root.set("configs", rows_);
    const std::string path = "BENCH_" + name_ + ".json";
    const std::string text = root.dump();
    std::FILE* file = std::fopen(path.c_str(), "w");
    const bool ok =
        file != nullptr &&
        std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
        std::fputc('\n', file) != EOF;
    if (file != nullptr) std::fclose(file);
    if (!ok) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }

 private:
  std::string name_;
  telemetry::Json params_ = telemetry::Json::object();
  telemetry::Json rows_ = telemetry::Json::array();
  telemetry::Json env_ = environment_json();
};

}  // namespace speedybox::bench
