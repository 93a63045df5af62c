// wallbench: the repository's wall-clock benchmark. One process runs one
// workload (see workloads.hpp and README.md):
//
//   wallbench --workload <name> [--seed <n> | --held-out] --seconds <s>
//             --trace <0|1> [--span-dir <dir>] [--scale <f>]
//   wallbench --workload <name> [--seed <n> | --held-out] --setup-only
//   wallbench --list
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line is one JSON object with
// correct / attempted / failed / metrics. --setup-only measures one cold
// set-up and prints {"setup_s": ...}. Exit 0 when every output packet
// matched the original-mode reference, 1 when one did not, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "host.hpp"
#include "ledger.hpp"
#include "phases.hpp"
#include "telemetry/json.hpp"
#include "util/cycle_clock.hpp"
#include "workloads.hpp"

namespace {

using speedybox::telemetry::Json;
using speedybox::util::CycleClock;
using namespace wallbench;

const char* const kUsage =
    "usage: wallbench --workload <name> [--seed <n> | --held-out] "
    "--seconds <s> --trace <0|1> [--span-dir <dir>] [--scale <f>] "
    "[--corrupt-output]\n"
    "       wallbench --workload <name> [--seed <n> | --held-out] "
    "--setup-only\n"
    "       wallbench --list\n";

/// What the command line asks of this process, beside the phases' Options.
struct Invocation {
  Options options;
  std::optional<std::uint64_t> seed;  // else the workload's own
  bool held_out = false;
  bool setup_only = false;
  bool list = false;
};

bool parse_options(int argc, char** argv, Invocation& in) {
  Options& options = in.options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-output") {
      options.corrupt_output = true;
      continue;
    }
    if (arg == "--held-out") {
      in.held_out = true;
      continue;
    }
    if (arg == "--setup-only") {
      in.setup_only = true;
      continue;
    }
    if (arg == "--list") {
      in.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        in.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (arg == "--span-dir") {
        options.span_dir = value;
      } else if (arg == "--scale") {
        options.scale = std::stod(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return options.seconds > 0.0 && options.scale > 0.0 &&
         !(in.seed && in.held_out);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  /// Part of the JSON result (BENCHMARK.json lists it); otherwise printed
  /// for the reader only.
  bool in_result = true;
};

double cycles_to_ns(double cycles) {
  return cycles / CycleClock::frequency_hz() * 1e9;
}

double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / 1048576.0;
}

std::string percentile_note(const PercentileReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "samples=%llu failed=%llu p%g=%.3f (%llu beyond)",
                static_cast<unsigned long long>(r.samples),
                static_cast<unsigned long long>(r.failed), r.tail_p, r.tail,
                static_cast<unsigned long long>(r.tail_beyond));
  return buf;
}

std::vector<Metric> end_to_end(Bench& bench, double setup_s) {
  // Most of the run goes to the gated closed loop, so that the host's slow
  // spells average out; the open loop runs at least one whole pass anyway.
  const ClosedLoop closed = closed_loop(bench, bench.options.seconds * 0.75);
  // Read before the open loop reserves the benchmark's own per-packet
  // sample buffers, which grow with --seconds and the offered rate.
  const double peak_mb = peak_rss_mb();
  const OpenLoop open = open_loop(bench, bench.options.seconds * 0.25);
  const PercentileReport latency = report(open.latency_us);
  const PercentileReport flow_time = report(open.flow_service_us);
  const PercentileReport flow_wait = report(open.flow_time_us);
  return {
      {"wall_mpps", closed.mpps(), "Mpps",
       "closed loop, " + std::to_string(closed.passes) + " passes, " +
           std::to_string(closed.packets) + " packets"},
      // The latencies are printed, not part of the result: on a shared host
      // their run-to-run spread exceeds any useful bound (README.md).
      {"latency_p50_us", latency.p50, "us",
       "open loop at " + std::to_string(bench.def.offered_mpps) + " Mpps, " +
           percentile_note(latency),
       false},
      {"latency_p99_us", latency.p99, "us", "same samples", false},
      {"flow_time_p50_us", flow_time.p50, "us",
       "processing time per flow (hand-over to return), " +
           percentile_note(flow_time) + "; from due time " +
           std::to_string(flow_wait.p50),
       false},
      {"peak_rss_mb", peak_mb, "MB", "ru_maxrss after the closed loop"},
      {"peak_rss_open_mb", peak_rss_mb(), "MB",
       "after the open loop, its sample buffers included", false},
      {"setup_s", setup_s, "s", "process start to the first timed packet"},
  };
}

std::vector<Metric> per_layer(Bench& bench) {
  const bool sharded = bench.def.shape == Shape::kSharded;
  // On the sharded shape the untraced closed loop already is the bare
  // push/finish loop, so it doubles as the tracing-overhead baseline.
  const double budget = bench.options.seconds / (sharded ? 3.0 : 4.0);
  const ClosedLoop untraced = closed_loop(bench, budget);
  const ClosedLoop bare =
      sharded ? untraced : batch_loop(bench, budget, nullptr);
  Traced traced;
  batch_loop(bench, budget, &traced);
  const OpenLoop open = open_loop(bench, budget);

  const double packets = static_cast<double>(traced.loop.packets);
  const double passes = static_cast<double>(traced.loop.passes);
  SpanLog& spans = traced.spans;
  const std::uint32_t batch = spans.intern("batch");
  const PercentileReport batch_us = report(spans.durations_us(batch));
  const double batch_ns = static_cast<double>(spans.total_ns(batch));
  const double self_ns = static_cast<double>(spans.self_ns(batch));
  double nf_span_ns = 0.0;
  for (const auto& [kind, totals] : traced.nf) {
    nf_span_ns += static_cast<double>(spans.total_ns(spans.intern("nf." + kind)));
  }
  // Program-reported cycles against the benchmark's own wall clock: batch
  // spans on the runner, worker-thread time (shards x wall) when sharded.
  const double program_ns =
      cycles_to_ns(traced.fastpath.sum() + traced.slowpath.sum());
  const double measured_ns =
      sharded ? static_cast<double>(traced.loop.timed_ns) *
                    static_cast<double>(kShardedWorkers)
              : batch_ns;
  const double classified =
      static_cast<double>(traced.initial + traced.subsequent);
  std::uint64_t nf_drops = 0;
  for (const auto& [kind, totals] : traced.nf) nf_drops += totals.drops;

  std::vector<double> lags = open.lag_us;
  const double wall = untraced.mpps();
  std::vector<Metric> out = {
      {"runtime.batch_us_p50", batch_us.p50, "us", percentile_note(batch_us)},
      {"runtime.batch_us_p99", batch_us.p99, "us", ""},
      {"runtime.self_ns_per_pkt", sharded ? 0.0 : self_ns / packets, "ns",
       "batch wall minus nf.* spans"},
      {"runtime.rss_bytes_per_pkt", untraced.rss_bytes_per_packet, "B",
       "RSS growth over one untraced pass"},
      {"runtime.model_mpps", untraced.model_mpps, "Mpps", "modeled"},
      {"runtime.wall_mpps", wall, "Mpps", "measured, untraced"},
      {"runtime.model_rate_ratio", wall > 0 ? untraced.model_mpps / wall : 0,
       "ratio", "modeled / measured"},
      {"core.fastpath_share",
       classified > 0 ? static_cast<double>(traced.subsequent) / classified
                      : 0.0,
       "fraction", "PacketClassifier subsequent / classified"},
      {"core.fastpath_ns_p50", cycles_to_ns(traced.fastpath.percentile(50)),
       "ns", ""},
      {"core.fastpath_ns_p99", cycles_to_ns(traced.fastpath.percentile(99)),
       "ns", ""},
      {"core.classify_ns_p50", cycles_to_ns(traced.classify.percentile(50)),
       "ns", "slow path only"},
      {"core.events_triggered", static_cast<double>(traced.events) / passes,
       "count", "per pass"},
      {"core.unattributed_share",
       measured_ns > 0 ? 1.0 - program_ns / measured_ns : 0.0, "fraction",
       sharded ? "vs worker-thread wall" : "vs batch span wall"},
      {"core.slowpath_ns_p50", cycles_to_ns(traced.slowpath.percentile(50)),
       "ns", ""},
      {"core.slowpath_ns_p99", cycles_to_ns(traced.slowpath.percentile(99)),
       "ns", ""},
      {"core.consolidate_ns_p50",
       cycles_to_ns(traced.consolidate.percentile(50)), "ns", ""},
      {"core.consolidations",
       static_cast<double>(traced.consolidations) / passes, "count",
       "per pass"},
      {"core.teardowns", static_cast<double>(traced.teardowns) / passes,
       "count", "per pass"},
  };
  for (const char* kind : {"nat", "maglev", "monitor", "ipfilter", "snort"}) {
    const auto it = traced.nf.find(kind);
    const Traced::NfTotals totals =
        it == traced.nf.end() ? Traced::NfTotals{} : it->second;
    const std::string prefix = std::string("nf.") + kind;
    out.push_back({prefix + ".calls",
                   static_cast<double>(totals.calls) / passes, "count",
                   "slow-path traversals per pass"});
    out.push_back({prefix + ".ns_per_call",
                   totals.calls > 0 ? static_cast<double>(totals.busy_ns) /
                                          static_cast<double>(totals.calls)
                                    : 0.0,
                   "ns", ""});
  }
  out.push_back({"nf.drop_share",
                 traced.first_nf_calls > 0
                     ? static_cast<double>(nf_drops) /
                           static_cast<double>(traced.first_nf_calls)
                     : 0.0,
                 "fraction", "NF drops / packets entering the chain head"});
  out.insert(
      out.end(),
      {
          {"flow_table.entries_max", static_cast<double>(traced.entries_max),
           "count", ""},
          {"flow_table.mean_probe",
           traced.lookups > 0 ? static_cast<double>(traced.probe_total) /
                                    static_cast<double>(traced.lookups)
                              : 0.0,
           "slots", ""},
          {"flow_table.max_probe", static_cast<double>(traced.max_probe),
           "slots", ""},
          {"flow_table.resizes", static_cast<double>(traced.resizes) / passes,
           "count", "per pass"},
          {"flow_table.slab_mb", traced.slab_bytes_max / 1048576.0, "MB", ""},
          {"flow_table.tombstone_share", traced.tombstone_share, "fraction",
           "at the end of a pass"},
          {"dispatch.push_ns_per_pkt",
           sharded ? static_cast<double>(untraced.push_ns) /
                         static_cast<double>(untraced.packets)
                   : 0.0,
           "ns", ""},
          {"dispatch.finish_ms",
           sharded ? static_cast<double>(untraced.finish_ns) /
                         (1e6 * untraced.passes)
                   : 0.0,
           "ms", ""},
          {"dispatch.backpressure_waits",
           static_cast<double>(untraced.backpressure_waits) /
               untraced.passes,
           "count", "per pass"},
          {"dispatch.ring_occupancy_max", traced.ring_occupancy_max,
           "fraction", ""},
          {"dispatch.shard_imbalance", untraced.shard_imbalance, "ratio",
           "max / mean shard packets"},
          {"gen.lag_us_p99", percentile(lags, 99.0), "us",
           std::to_string(lags.size()) + " batches"},
          {"gen.offered_mpps",
           open.offered_ns > 0 ? static_cast<double>(open.packets) * 1e3 /
                                     static_cast<double>(open.offered_ns)
                               : 0.0,
           "Mpps", ""},
          {"telemetry.trace_overhead_pct",
           (bare.mpps() - traced.loop.mpps()) / bare.mpps() * 100.0, "%",
           sharded ? "traced vs untraced push/finish loop"
                   : "traced vs bare batch loop"},
          {"trace.flows_resident_max",
           static_cast<double>(bench.arena->resident_flows_max()), "count",
           ""},
          {"util.timer_overhead_ns",
           CycleClock::to_ns(CycleClock::timer_overhead()), "ns",
           "one CycleClock::now()"},
      });

  std::cout << "snapshot: model_mpps=" << untraced.model_mpps
            << " (modeled) wall_mpps=" << wall << " (measured)\n";
  if (!sharded) {
    std::cout << "ledger: batch wall " << batch_ns / 1e6
              << " ms = runtime self " << self_ns / 1e6 << " ms + nf spans "
              << nf_span_ns / 1e6 << " ms\n";
  }
  std::error_code ec;
  std::filesystem::create_directories(bench.options.span_dir, ec);
  const std::string path = bench.options.span_dir + "/" +
                           bench.options.workload + "-seed" +
                           std::to_string(bench.options.seed) + ".jsonl";
  if (spans.write_jsonl(path)) {
    std::cout << "spans: " << spans.spans().size() << " written to " << path
              << " (" << spans.dropped() << " over capacity)\n";
  } else {
    std::cout << "spans: could not write " << path << "\n";
  }
  return out;
}

int run(const WorkloadDef& def, const Options& options, bool setup_only,
        std::int64_t process_start);

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  Invocation in;
  if (!parse_options(argc, argv, in)) {
    std::cerr << kUsage;
    return 2;
  }
  if (in.list) {
    for (const std::string_view name : workload_names()) {
      std::cout << name << '\n';
    }
    return 0;
  }
  const WorkloadDef* def = find_workload(in.options.workload);
  if (def == nullptr) {
    std::cerr << "wallbench: unknown workload '" << in.options.workload
              << "'; one of:";
    for (const std::string_view name : workload_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n' << kUsage;
    return 2;
  }
  in.options.seed =
      in.seed.value_or(in.held_out ? def->held_out_seed : def->seed);
  try {
    return run(*def, in.options, in.setup_only, process_start);
  } catch (const std::exception& e) {
    std::cerr << "wallbench: " << e.what() << "\n";
    return 1;
  }
}

namespace {

int run(const WorkloadDef& def, const Options& options, bool setup_only,
        std::int64_t process_start) {
  // A runner workload polls on one core, as a BESS worker does. Pin it to
  // the last CPU (CPU 0 takes most of the host's interrupts), so that runs
  // do not differ by where the scheduler happened to put them. The sharded
  // workload's threads inherit the affinity, so it stays unpinned.
  const int cpu = def.shape == Shape::kRunner ? pin_to_last_cpu() : -1;
  Bench bench(def, options);

  // Set-up, from process start to the first timed packet. One sample per
  // process, so that one-time start-up costs (clock calibration, allocator
  // pools, code pages) are always in it; run.py starts several processes
  // and reports their median.
  set_up(bench);
  const double setup_s = static_cast<double>(now_ns() - process_start) / 1e9;
  if (setup_only) {
    std::cout << Json::object().set("setup_s", Json::number(setup_s)).dump()
              << std::endl;
    return 0;
  }
  build_reference(bench);

  std::cout << "wallbench " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " packets/pass=" << bench.arena->size()
            << " flows=" << bench.arena->flow_count()
            << " resident_max=" << bench.arena->resident_flows_max()
            << " pinned_cpu=" << cpu << "\n";
  std::cout << "host " << host_fingerprint().dump() << "\n";

  const std::vector<Metric> metrics =
      options.trace ? per_layer(bench) : end_to_end(bench, setup_s);

  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-30s %16.6f %-8s failed=%llu attempted=%llu\n",
              "failed_share",
              bench.attempted > 0 ? static_cast<double>(bench.failed) /
                                        static_cast<double>(bench.attempted)
                                  : 1.0,
              "fraction", static_cast<unsigned long long>(bench.failed),
              static_cast<unsigned long long>(bench.attempted));
  for (const std::string& error : bench.errors) {
    std::cout << "error: " << error << "\n";
  }
  std::fflush(stdout);

  const bool correct =
      bench.failed == 0 && bench.errors.empty() && bench.attempted > 0;
  Json values = Json::object();
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    values.set(m.name, Json::object()
                           .set("value", Json::number(m.value))
                           .set("unit", Json::string(m.unit)));
  }
  Json result = Json::object();
  result.set("correct", Json::boolean(correct));
  result.set("attempted", Json::integer(bench.attempted));
  result.set("failed", Json::integer(bench.failed));
  result.set("metrics", std::move(values));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
