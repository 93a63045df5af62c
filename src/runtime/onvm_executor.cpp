#include "runtime/onvm_executor.hpp"

#include <utility>

#include "net/packet.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {

OnvmExecutor::OnvmExecutor(ServiceChain& chain, std::size_t ring_capacity,
                           std::size_t batch_size)
    : chain_(chain) {
  std::vector<nf::NetworkFunction*> stages;
  stages.reserve(chain_.size());
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    stages.push_back(&chain_.nf(i));
  }
  pipeline_ = std::make_unique<platform::OnvmPipeline>(
      std::move(stages), ring_capacity, batch_size);
}

void OnvmExecutor::offer(net::Packet packet) {
  // No Global MAT on the platform path (see header): nothing names doomed
  // flows, so slo-early-drop degenerates to tail-drop.
  if (controller_ != nullptr &&
      !admit_arrival(*controller_, packet,
                     {nullptr, pipeline_->ingress_pressured(),
                      pipeline_->ingress_depth()},
                     stats_.overload, metrics_)) {
    return;
  }
  ++packets_;
  pipeline_->push(std::move(packet));
}

std::vector<net::Packet> OnvmExecutor::finish() {
  auto collected = pipeline_->stop_and_collect();
  stats_.packets = packets_;
  stats_.drops = pipeline_->drops();
  stats_.overload.faulted = pipeline_->faulted();
  if (metrics_ != nullptr) {
    // Workers are joined: one settle write from this (now sole) thread.
    metrics_->packets.add(packets_);
    metrics_->drops.add(stats_.drops);
    metrics_->faulted.add(stats_.overload.faulted);
  }
  return collected;
}

const RunStats& OnvmExecutor::run(const trace::Workload& workload) {
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    offer(workload.materialize(i));
  }
  finish();
  return stats_;
}

const RunStats& OnvmExecutor::run(const std::vector<net::Packet>& packets,
                                  std::vector<net::Packet>* outputs) {
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    offer(std::move(packet));
  }
  auto collected = finish();
  if (outputs != nullptr) *outputs = std::move(collected);
  return stats_;
}

void OnvmExecutor::attach_telemetry(telemetry::Registry* registry,
                                    const std::string& label) {
  metrics_ = registry == nullptr
                 ? nullptr
                 : &registry->create_shard(label, chain_.nf_names());
  if (metrics_ != nullptr) {
    metrics_->ring_capacity.set(pipeline_->ingress_capacity());
  }
}

void OnvmExecutor::set_overload_policy(const OverloadConfig& config) {
  controller_ = config.enabled
                    ? std::make_unique<OverloadController>(config)
                    : nullptr;
  if (config.enabled) {
    const auto capacity =
        static_cast<double>(pipeline_->ingress_capacity());
    pipeline_->set_ingress_watermarks(
        static_cast<std::size_t>(config.high_watermark * capacity),
        static_cast<std::size_t>(config.low_watermark * capacity));
  }
}

}  // namespace speedybox::runtime
