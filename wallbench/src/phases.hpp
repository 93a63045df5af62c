// The phases of one benchmark process: set-up, the original-mode reference,
// and the closed- and open-loop measurements of the untraced and traced
// runs. Every phase checks each output packet against the reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "runtime/plan.hpp"
#include "runtime/runner.hpp"
#include "util/histogram.hpp"
#include "workloads.hpp"

namespace wallbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir = ".bench_build/spans";
  double scale = 1.0;
  /// Self-check: flip one byte of the first delivered output packet, which
  /// the correctness check must catch.
  bool corrupt_output = false;
};

/// State shared by the phases: the workload, its packets, the reference
/// digests and the failure ledger.
struct Bench {
  Bench(const WorkloadDef& def, Options options)
      : def(def), options(std::move(options)), spec(chain_spec(def)) {}

  const WorkloadDef& def;
  Options options;
  speedybox::plan::ChainSpec spec;
  std::unique_ptr<PacketArena> arena;
  /// output_digest of every packet after an original-mode run.
  std::vector<std::uint64_t> reference;

  std::uint64_t attempted = 0;  // packets offered, every phase
  std::uint64_t failed = 0;     // mismatched or missing packets
  std::vector<std::string> errors;

  /// Checks output `out` of input packet `index`; counts a mismatch.
  bool check(std::size_t index, net::Packet& out);
  /// packets == delivered + drops + faulted, and nothing went missing.
  void conserve(const speedybox::runtime::RunStats& stats,
                std::uint64_t offered,
                std::uint64_t delivered, const char* phase);
};

/// Chain build, traffic generation, materialization and warm-up; leaves
/// bench.arena filled.
void set_up(Bench& bench);

/// Runs every packet through an original-mode chain (the oracle) and keeps
/// the digests. Outside every timed region.
void build_reference(Bench& bench);

struct ClosedLoop {
  std::uint64_t packets = 0;
  std::int64_t timed_ns = 0;
  int passes = 0;
  double model_mpps = 0.0;           // last pass, RunStats::rate_mpps
  double rss_bytes_per_packet = 0.0;  // first pass
  // Sharded only.
  std::int64_t push_ns = 0;
  std::int64_t finish_ns = 0;
  std::uint64_t backpressure_waits = 0;
  double shard_imbalance = 0.0;  // max / mean shard packets, last pass
  /// Pooled rate: every packet over every timed nanosecond.
  double mpps() const {
    return timed_ns > 0 ? static_cast<double>(packets) * 1e3 /
                              static_cast<double>(timed_ns)
                        : 0.0;
  }
};

/// Closed loop through Executor::run (runner) or push/finish (sharded), on
/// packets materialized before the clock starts. Whole passes over the
/// trace, each on a fresh chain, until `budget_s` has elapsed.
ClosedLoop closed_loop(Bench& bench, double budget_s);

struct OpenLoop {
  std::vector<double> latency_us;    // per packet, +inf when failed
  std::vector<double> flow_time_us;  // per flow per pass, due to done
  /// Per flow per pass, hand-over to done: processing time without the
  /// wait for earlier packets.
  std::vector<double> flow_service_us;
  std::vector<double> lag_us;        // per batch handed over
  std::uint64_t packets = 0;
  std::int64_t offered_ns = 0;  // first due to last hand-over, all passes
  int passes = 0;
};

/// Open loop at the workload's offered rate. Runner: the generator polls
/// inside the run-to-completion loop and hands every due packet (up to a
/// batch) to process_batch; a packet completes when that call returns.
/// Sharded: due packets are pushed, then quiesce() drains them; a packet
/// completes when quiesce() returns.
OpenLoop open_loop(Bench& bench, double budget_s);

/// The traced run's per-layer figures, summed over its passes.
struct Traced {
  ClosedLoop loop;
  SpanLog spans;
  speedybox::util::LogHistogram fastpath, slowpath, classify, consolidate;
  std::uint64_t events = 0, consolidations = 0, teardowns = 0;
  std::uint64_t initial = 0, subsequent = 0;  // PacketClassifier counts
  struct NfTotals {
    std::uint64_t calls = 0, busy_ns = 0, drops = 0;
  };
  std::map<std::string, NfTotals> nf;  // by registry kind
  std::uint64_t first_nf_calls = 0;    // packets entering the chain's head
  // Flow tables, sampled between batches (runner) or at quiesce points
  // and finish() (sharded).
  std::uint64_t entries_max = 0, max_probe = 0, resizes = 0;
  std::uint64_t lookups = 0, probe_total = 0;
  double slab_bytes_max = 0.0, tombstone_share = 0.0;
  double ring_occupancy_max = 0.0;  // sharded
};

/// Closed loop driving process_batch directly (runner) or push/finish
/// (sharded). With `traced` set, NF timing decorators, telemetry
/// histograms, spans and flow-table sampling are on and the figures land in
/// *traced; without, the same loop runs bare, as the baseline of the
/// tracing overhead. The sharded shape needs `traced`: its bare loop is
/// closed_loop(), push/finish being the runtime's own loop.
ClosedLoop batch_loop(Bench& bench, double budget_s, Traced* traced);

}  // namespace wallbench
