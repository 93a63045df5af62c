// runtime::Executor — the one interface every deployment shape implements:
//
//   ChainRunner        single thread, with the platform cycle model
//   ShardedRuntime     RSS flow sharding, N full chain replicas
//   SpeedyBoxPipeline  the threaded ONVM deployment (§VI-A): manager + one
//                      core per NF (or fused segment), descriptor rings
//
// Each runs either data path — original or SpeedyBox — chosen by
// RunConfig::speedybox.
//
// Call sites (chainsim, bench_util, the equivalence harnesses) dispatch
// through this interface instead of hand-rolling one loop per executor, so
// every executor gets workload driving, telemetry attachment, overload
// policy and stats reporting through the same four entry points.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runtime/overload.hpp"

namespace speedybox::net {
class Packet;
}
namespace speedybox::trace {
struct Workload;
}
namespace speedybox::telemetry {
class Registry;
}

namespace speedybox::runtime {

struct RunStats;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Short executor-shape label ("runner", "sharded", "pipeline") — used
  /// in logs, JSON output and telemetry shard labels.
  virtual std::string_view kind() const noexcept = 0;

  /// Drive a whole workload through the data path; returns the aggregate
  /// stats (same object stats() reports). Threaded executors start their
  /// worker threads at construction and stop them here, so run() is
  /// one-shot for those shapes.
  virtual const RunStats& run(const trace::Workload& workload) = 0;

  /// Drive a raw packet sequence (e.g. from trace::read_pcap). Packets are
  /// copied per run. When `outputs` is non-null it receives every packet
  /// post-chain — dropped ones included (check Packet::dropped()) — in
  /// input order where the executor preserves it (ChainRunner,
  /// ShardedRuntime) and in completion order otherwise (the pipeline,
  /// which only guarantees per-flow FIFO and omits dropped packets).
  virtual const RunStats& run(const std::vector<net::Packet>& packets,
                              std::vector<net::Packet>* outputs) = 0;
  const RunStats& run_raw(const std::vector<net::Packet>& packets) {
    return run(packets, nullptr);
  }

  virtual const RunStats& stats() const noexcept = 0;

  /// Create this executor's metric shard(s) in `registry` under `label`
  /// (null detaches). Must be called before the first packet; the sharded
  /// runtime labels its per-shard cells "<label>/shard<i>".
  virtual void attach_telemetry(telemetry::Registry* registry,
                                const std::string& label) = 0;

  /// Install the overload policy (DESIGN.md §9). Must be called before the
  /// first packet. A config with enabled=false restores the zero-cost
  /// byte-identical default path.
  virtual void set_overload_policy(const OverloadConfig& config) = 0;
};

}  // namespace speedybox::runtime
