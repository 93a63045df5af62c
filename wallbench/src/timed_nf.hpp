// TimedNf: a transparent NF decorator that times every call into the NF it
// wraps — how the benchmark attributes slow-path cost to each NF without
// touching the program (the same wrapping runtime::FaultInjector uses).
//
// The wrapper reports the inner NF's name and forwards recording, teardown
// and flow-table statistics, so the packet bytes, the recorded rules and
// every counter are exactly what the bare NF produces. SpeedyBox's fast
// path never calls an NF, so on a MAT hit the wrapper costs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ledger.hpp"
#include "nf/network_function.hpp"
#include "runtime/plan.hpp"

namespace wallbench {

class TimedNf final : public speedybox::nf::NetworkFunction {
 public:
  /// `spans` (may be null) receives one `nf.<kind>` span per call, as a
  /// child of the span open at the time. Clones never log spans: they run
  /// on other threads, and the log has a single writer.
  TimedNf(std::unique_ptr<speedybox::nf::NetworkFunction> inner,
          std::string kind, SpanLog* spans);

  void process(speedybox::net::Packet& packet,
               speedybox::core::SpeedyBoxContext* ctx) override;
  void process_batch(
      speedybox::net::PacketBatch& batch,
      std::span<speedybox::core::SpeedyBoxContext* const> ctxs) override;
  std::unique_ptr<speedybox::nf::NetworkFunction> clone() const override;
  void on_flow_teardown(const speedybox::net::FiveTuple& tuple) override {
    inner_->on_flow_teardown(tuple);
  }
  speedybox::core::FlowTableStats flow_state_stats() const override {
    return inner_->flow_state_stats();
  }

  const std::string& kind() const noexcept { return kind_; }
  std::uint64_t calls() const noexcept { return calls_; }
  std::uint64_t busy_ns() const noexcept { return busy_ns_; }
  std::uint64_t drops() const noexcept { return drops_; }

 private:
  std::unique_ptr<speedybox::nf::NetworkFunction> inner_;
  std::string kind_;
  SpanLog* spans_;
  std::uint32_t span_name_ = 0;
  std::uint64_t calls_ = 0;    // packets handed to the NF
  std::uint64_t busy_ns_ = 0;  // wall time inside the NF
  std::uint64_t drops_ = 0;    // packets the NF dropped
};

/// `chain` built as plan::build_chain would, with every NF wrapped in a
/// TimedNf whose kind is the NF's registry kind.
std::unique_ptr<speedybox::runtime::ServiceChain> build_timed_chain(
    const speedybox::plan::ChainSpec& spec, SpanLog* spans);

}  // namespace wallbench
