// runtime::Executor adapter over platform::OnvmPipeline.
//
// The platform layer sits below runtime in the link order and cannot see
// runtime/executor.hpp, so the adapter lives here: it builds the stage
// vector from a ServiceChain, owns the threaded pipeline, and adds the
// overload ingress gate in front of push().
//
// The ONVM platform path runs the NFs directly (no classifier, no MATs),
// so slo-early-drop has no consolidated rule to consult and degenerates to
// tail-drop on this shape; per-flow-fair and the token bucket work
// unchanged. Pressure is the REAL first descriptor ring's occupancy
// (SpscRing::over_watermark, producer side), OR'd into the controller's
// virtual gate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/onvm_pipeline.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"

namespace speedybox::runtime {

class OnvmExecutor final : public Executor {
 public:
  /// The chain is borrowed and must outlive the executor; its NF threads
  /// start immediately (OnvmPipeline semantics).
  explicit OnvmExecutor(ServiceChain& chain, std::size_t ring_capacity = 1024,
                        std::size_t batch_size = net::kDefaultBatchSize);

  // -- Executor interface (one-shot: run() joins the NF threads) --
  //
  // Like SpeedyBoxPipeline, this shape carries no cycle model: RunStats
  // hold packets/drops and the overload block. Output order is arrival
  // order (the ONVM sink preserves FIFO); dropped packets are omitted.
  std::string_view kind() const noexcept override { return "onvm"; }
  const RunStats& run(const trace::Workload& workload) override;
  const RunStats& run(const std::vector<net::Packet>& packets,
                      std::vector<net::Packet>* outputs) override;
  const RunStats& stats() const noexcept override { return stats_; }
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override;
  void set_overload_policy(const OverloadConfig& config) override;

 private:
  /// Ingress gate, then push into the pipeline if admitted.
  void offer(net::Packet packet);
  /// Join the workers and settle the counters (drops/faulted come from the
  /// pipeline's relaxed cells, exact after the join).
  std::vector<net::Packet> finish();

  ServiceChain& chain_;
  std::unique_ptr<platform::OnvmPipeline> pipeline_;
  std::unique_ptr<OverloadController> controller_;
  telemetry::ShardMetrics* metrics_ = nullptr;
  RunStats stats_;
  std::uint64_t packets_ = 0;  // admitted into the pipeline
};

}  // namespace speedybox::runtime
