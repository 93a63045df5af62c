// IngestExecutor — adapts the one-shot runtime::Executor interface to the
// streaming arrival pattern of the live front-end (DESIGN.md §11).
//
// The executor shapes split by their natural feeding mode:
//   ChainRunner      stream-batch: each staged batch runs through
//                    process_batch() inline on the ingest thread (exactly
//                    the run_packets() inner loop, batch by batch)
//   ShardedRuntime   stream-push: packets push() through the dispatcher's
//                    burst SPSC staging onto the shard rings; workers
//                    process concurrently with socket reads
//   anything else    deferred: packets buffer and one Executor::run()
//                    fires at finish() (the pipeline is one-shot — its
//                    worker threads stop inside run())
//
// Overload control and telemetry compose unchanged: both are installed on
// the wrapped executor before serving, and the ingress gate sees live
// arrivals exactly as it sees trace-driven ones.
//
// Thread contract: submit() and finish() are ingest-thread only (the
// ingest thread IS the dispatcher for a sharded sink). finish() is
// one-shot, mirroring Executor::run().
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "runtime/runner.hpp"

namespace speedybox::runtime {
class ShardedRuntime;
}

namespace speedybox::io {

class IngestExecutor {
 public:
  /// `capture_outputs` keeps every post-chain packet (arrival order for
  /// the streaming modes) — the equivalence tests compare them
  /// byte-for-byte against the in-process trace:: path.
  explicit IngestExecutor(runtime::Executor& executor,
                          bool capture_outputs = false);

  /// "stream-batch" | "stream-push" | "deferred".
  std::string_view mode() const noexcept;

  /// A host-boundary admission hook (multi-tenant hosting, DESIGN.md §14):
  /// called per staged packet on the ingest thread BEFORE the hand-off.
  /// Returning false sheds the packet at the host gate — it never reaches
  /// the wrapped executor and counts in gate_shed() instead of the
  /// executor's own offered/admitted. The hook runs at a packet boundary
  /// of a sharded sink's dispatcher, so it may also apply control-plane
  /// actions (e.g. a pending reshard). Install before serving.
  using GateHook = std::function<bool(const net::Packet&)>;
  void set_gate(GateHook gate) { gate_ = std::move(gate); }
  std::uint64_t gate_shed() const noexcept { return gate_shed_; }

  /// Hand one staged batch of decoded packets to the data path. Packets
  /// arrive with reset metadata; arrival timestamps are (re)stamped here,
  /// at the hand-off, so queueing inside the front-end never inflates the
  /// chain's latency accounting.
  void submit(std::vector<net::Packet>&& batch);

  /// Drain the data path and return the final stats (one-shot).
  const runtime::RunStats& finish();

  std::uint64_t submitted() const noexcept { return submitted_; }
  /// Post-chain packets (capture_outputs only; valid after finish()).
  const std::vector<net::Packet>& outputs() const noexcept {
    return outputs_;
  }
  runtime::Executor& executor() noexcept { return executor_; }

 private:
  runtime::Executor& executor_;
  /// Set when the wrapped executor supports the respective streaming mode.
  runtime::ChainRunner* runner_ = nullptr;
  runtime::ShardedRuntime* sharded_ = nullptr;
  bool capture_outputs_ = false;
  bool finished_ = false;
  std::uint64_t submitted_ = 0;
  GateHook gate_;
  std::uint64_t gate_shed_ = 0;
  /// Deferred mode: arrivals buffered until finish().
  std::vector<net::Packet> pending_;
  std::vector<net::Packet> outputs_;
  std::vector<runtime::PacketOutcome> outcomes_scratch_;
  /// stream-push: stats merged at finish() (ShardedRuntime::finish()
  /// returns a value; a stable reference must live here).
  runtime::RunStats sharded_stats_;
};

}  // namespace speedybox::io
