// IngestExecutor — the live front-end's hand-off into a runtime::Executor
// (DESIGN.md §11).
//
// Every executor shape streams through the same Executor::submit/drain
// contract, so the adapter only adds what belongs to the host boundary: an
// optional admission gate and the count of packets that passed it. Each
// staged batch is submitted as it arrives — the runner processes it inline
// on the ingest thread, the sharded dispatcher and the pipeline manager
// push it onto their rings — and finish() drains the executor. Unless
// `capture_outputs` asks for the post-chain packets, nothing is kept per
// packet, so a live run's memory does not grow with its length.
//
// Overload control and telemetry compose unchanged: the wrapped executor
// was built with its gate in RunConfig::overload and has its telemetry
// attached before serving, and the gate sees live arrivals exactly as it
// sees trace-driven ones. The batches come off the server's one UDP
// receive path (batched recvmmsg) or its TCP reassembler.
//
// Thread contract: submit() and finish() are ingest-thread only (the
// ingest thread IS the dispatcher of a sharded sink).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "runtime/runner.hpp"

namespace speedybox::io {

class IngestExecutor {
 public:
  /// `capture_outputs` keeps every post-chain packet (see Executor::drain
  /// for the order) — the equivalence tests compare them byte-for-byte
  /// against the in-process trace:: path.
  explicit IngestExecutor(runtime::Executor& executor,
                          bool capture_outputs = false)
      : executor_(executor), capture_outputs_(capture_outputs) {}

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

  /// Hand one staged batch of decoded packets to the data path
  /// (Executor::submit, which stamps arrival where the packet enters the
  /// chain, so queueing inside the front-end never inflates the chain's
  /// latency accounting).
  void submit(std::vector<net::Packet>&& batch);

  /// Drain the data path and return the final stats.
  const runtime::RunStats& finish() {
    return executor_.drain(capture_outputs_ ? &outputs_ : nullptr);
  }

  std::uint64_t submitted() const noexcept { return submitted_; }
  /// Post-chain packets (capture_outputs only; valid after finish()).
  const std::vector<net::Packet>& outputs() const noexcept {
    return outputs_;
  }

 private:
  runtime::Executor& executor_;
  bool capture_outputs_ = false;
  std::uint64_t submitted_ = 0;
  GateHook gate_;
  std::uint64_t gate_shed_ = 0;
  std::vector<net::Packet> outputs_;
};

}  // namespace speedybox::io
