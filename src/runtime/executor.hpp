// runtime::Executor — the one interface every deployment shape implements:
//
//   ChainRunner        single thread, with the platform cycle model
//   ShardedRuntime     RSS flow sharding, N full chain replicas
//   SpeedyBoxPipeline  the threaded ONVM deployment (§VI-A): manager + one
//                      core per NF (or fused segment), descriptor rings
//
// Each runs either data path — original or SpeedyBox — chosen by
// RunConfig::speedybox, and reads its overload gate (DESIGN.md §9) from
// RunConfig::overload when it is constructed.
//
// Packets enter and leave every shape through one streaming contract, the
// software analogue of a DPDK dataplane taking bursts off the NIC:
//
//   submit(burst, keep)  hand over a burst. The runner processes it inline
//                        on the caller's thread; the sharded dispatcher and
//                        the pipeline manager push it onto their rings.
//   drain(outputs)       finish the run: everything in flight completes,
//                        and the run's stats come back. `outputs` receives
//                        the packets of the bursts submitted with `keep`.
//
// A packet nobody asked to keep is freed as soon as it completes, so a
// live run holds nothing per packet however long it serves. run(workload)
// and run(packets, outputs) are written once, below, over that contract;
// the live front-end (io::IngestServer::serve) and multi-tenant hosting
// feed it the same way, so no caller decides by executor type how packets
// enter.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

  /// Hand one burst of packets to the data path. The executor takes the
  /// packets (the span is left holding packets in an unspecified state).
  /// With `keep`, drain() hands them back post-chain; without it, each is
  /// freed when it completes. The runner may be submitted to again after
  /// drain(); the threaded shapes stop their workers in drain(), and
  /// submitting to them afterwards throws std::logic_error.
  virtual void submit(std::span<net::Packet> burst, bool keep) = 0;

  /// Complete every submitted packet and return the run's stats. When
  /// `outputs` is non-null its contents are replaced by the kept packets,
  /// post-chain: in submission order on the runner and the sharded runtime,
  /// dropped ones included (check Packet::dropped()); in completion order
  /// on the pipeline, which guarantees per-flow FIFO only and hands back
  /// delivered packets only.
  virtual const RunStats& drain(std::vector<net::Packet>* outputs) = 0;

  /// Burst size run() feeds submit() in: RunConfig::batch_size, so the
  /// runner's batches are those of its configuration.
  virtual std::size_t batch_size() const noexcept = 0;

  /// Drive a whole workload: each packet is materialized once and
  /// submitted without keep, then drain() ends the run.
  const RunStats& run(const trace::Workload& workload);

  /// Drive a raw packet sequence (e.g. from trace::read_pcap): each packet
  /// is copied once, metadata reset, and submitted with keep exactly when
  /// `outputs` is non-null, which then receives them as drain() describes.
  const RunStats& run(const std::vector<net::Packet>& packets,
                      std::vector<net::Packet>* outputs);

  virtual const RunStats& stats() const noexcept = 0;

  /// Create this executor's metric shard(s) in `registry` under `label`
  /// (null detaches). Must be called before the first packet; the sharded
  /// runtime labels its per-shard cells "<label>/shard<i>".
  virtual void attach_telemetry(telemetry::Registry* registry,
                                const std::string& label) = 0;
};

}  // namespace speedybox::runtime
