#include "runtime/speedybox_pipeline.hpp"

#include <span>
#include <stdexcept>

#include "core/api.hpp"
#include "net/checksum.hpp"
#include "net/packet_batch.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::runtime {

SpeedyBoxPipeline::SpeedyBoxPipeline(ServiceChain& chain, RunConfig config,
                                     std::size_t ring_capacity,
                                     std::vector<std::size_t> segment_sizes)
    : chain_(chain), config_(config), completions_(ring_capacity) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (segment_sizes.empty()) {
    segment_sizes.assign(chain_.size(), 1);
  }
  std::size_t begin = 0;
  for (const std::size_t size : segment_sizes) {
    if (size == 0 || begin + size > chain_.size()) {
      throw std::invalid_argument(
          "SpeedyBoxPipeline: segment sizes do not partition the chain");
    }
    stages_.emplace_back(begin, begin + size);
    begin += size;
  }
  if (begin != chain_.size() || stages_.empty()) {
    throw std::invalid_argument(
        "SpeedyBoxPipeline: segment sizes do not partition the chain");
  }
  rings_.reserve(stages_.size());
  stop_flags_.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    rings_.push_back(
        std::make_unique<util::SpscRing<Descriptor>>(ring_capacity));
    stop_flags_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  if (config_.overload.enabled) {
    controller_ = std::make_unique<OverloadController>(config_.overload);
    arm_ring_watermarks(*rings_.front());
  }
  workers_.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

SpeedyBoxPipeline::~SpeedyBoxPipeline() { stop(); }

void SpeedyBoxPipeline::worker(std::size_t stage) {
  util::SpscRing<Descriptor>& in = *rings_[stage];
  util::SpscRing<Descriptor>& out =
      stage + 1 == stages_.size() ? completions_ : *rings_[stage + 1];
  const auto [begin, end] = stages_[stage];
  // Burst discipline (DESIGN.md §8): pop up to a batch of descriptors with
  // one ring round-trip, run them through this stage's NFs, then forward
  // the whole burst downstream with one push per burst. Dropped packets
  // ride along untouched, so the manager counts every loss at completion
  // and teardown markers keep their slot relative to later packets of the
  // same flow; only the ring traffic amortizes.
  std::vector<Descriptor> burst(config_.batch_size);
  net::PacketBatch batch{config_.batch_size};
  for (;;) {
    const std::size_t popped =
        in.try_pop_burst(std::span<Descriptor>{burst});
    if (popped == 0) {
      if (stop_flags_[stage]->load(std::memory_order_acquire) && in.empty()) {
        return;
      }
      std::this_thread::yield();
      continue;
    }

    if (config_.speedybox) {
      for (std::size_t d = 0; d < popped; ++d) {
        run_speedybox_stage(burst[d], begin, end);
      }
    } else {
      // Original path: the unmodified chain, NF-major over the burst with
      // no context, as ChainRunner runs it. A packet dropped upstream
      // enters the batch masked, so no later NF touches it.
      batch.clear();
      for (std::size_t d = 0; d < popped; ++d) batch.push(burst[d].packet);
      for (std::size_t nf = begin; nf < end && batch.valid_count() > 0;
           ++nf) {
        chain_.nf(nf).process_batch(batch, {});
      }
    }

    // A partial try_push_burst moves out exactly what it reports, so the
    // retry loop resumes at the first un-pushed descriptor — burst order
    // (and with it per-flow FIFO) is preserved across partial pushes.
    std::span<Descriptor> pending{burst.data(), popped};
    while (!pending.empty()) {
      pending = pending.subspan(out.try_push_burst(pending));
      if (!pending.empty()) std::this_thread::yield();
    }
  }
}

void SpeedyBoxPipeline::run_speedybox_stage(Descriptor& descriptor,
                                            std::size_t begin,
                                            std::size_t end) {
  if (descriptor.packet != nullptr) {
    // Consolidated stage: the fused NFs run sequentially in chain order on
    // this core, re-checking the drop flag between NFs just as the per-NF
    // stages do across ring hops.
    net::Packet& packet = *descriptor.packet;
    for (std::size_t nf = begin; nf < end && !packet.dropped(); ++nf) {
      if (descriptor.recording) {
        core::SpeedyBoxContext ctx{*descriptor.record, nf, descriptor.fid};
        chain_.nf(nf).process(packet, &ctx);
        continue;
      }
      // Execute this NF's recorded state-function batch, if any.
      for (const auto& batch : descriptor.handlers.batches) {
        if (batch.nf_index != nf) continue;
        if (const auto parsed = net::parse_packet(packet)) {
          descriptor.handlers.run_batch(batch, packet, *parsed);
        }
        break;
      }
    }
  }

  // Teardown hooks mutate NF-internal per-flow state, so they must run
  // here — on the core that owns these NFs — not on the manager. Per-flow
  // FIFO guarantees every earlier packet of the flow already passed this
  // stage. (Descriptors with a null packet are pure teardown markers for
  // flows the manager finished inline.)
  if (descriptor.teardown && descriptor.record != nullptr) {
    descriptor.record->run_teardown_hooks(static_cast<std::uint32_t>(begin),
                                          static_cast<std::uint32_t>(end));
  }
}

void SpeedyBoxPipeline::dispatch(Descriptor descriptor) {
  ++in_flight_;
  while (!rings_.front()->try_push(std::move(descriptor))) {
    // Keep consuming completions while the first ring is full so the
    // pipeline cannot deadlock on its own backpressure.
    if (metrics_ != nullptr) metrics_->backpressure_yields.add(1);
    drain_completions(false);
    std::this_thread::yield();
  }
  if (metrics_ != nullptr) {
    metrics_->ring_occupancy.set(rings_.front()->size());
  }
}

void SpeedyBoxPipeline::count_drop(net::Packet* packet) {
  ++stats_.drops;
  delete packet;
}

void SpeedyBoxPipeline::deliver(net::Packet* packet, bool keep) {
  if (keep) sink_.push_back(std::move(*packet));
  delete packet;
}

void SpeedyBoxPipeline::finish_teardown(std::uint32_t fid) {
  // Hooks already ran on the NF cores as the teardown descriptor passed
  // each stage, and per-flow FIFO completed every earlier descriptor of the
  // flow first: only the manager-owned free remains.
  const std::uint64_t t0 = metrics_ != nullptr ? util::CycleClock::now() : 0;
  chain_.global_mat().erase_flow(fid, /*run_hooks=*/false);
  chain_.classifier().release_flow(fid);
  std::vector<Held> held;
  if (FlowState* flow = flows_.find(fid)) held.swap(flow->held);
  flows_.erase(fid);
  if (metrics_ != nullptr) {
    metrics_->teardown_cycles.record(
        util::CycleClock::segment(t0, util::CycleClock::now()));
    metrics_->teardowns.add(1);
  }
  // In arrival order these packets follow the teardown: a new flow.
  for (const Held& packet : held) route(packet.packet, packet.keep);
}

void SpeedyBoxPipeline::dispatch_teardown_marker(std::uint32_t fid) {
  Descriptor descriptor;
  descriptor.fid = fid;
  descriptor.teardown = true;
  descriptor.record = chain_.global_mat().record(fid);
  dispatch(std::move(descriptor));
}

void SpeedyBoxPipeline::handle_completion(Descriptor& descriptor) {
  --in_flight_;
  net::Packet* packet = descriptor.packet;

  if (descriptor.recording) {
    // The initial packet has visited every NF: consolidate and release the
    // packets of this flow that arrived in the meantime, in order, up to
    // its FIN/RST; any behind that wait for the teardown.
    chain_.global_mat().consolidate_flow(descriptor.fid);
    if (metrics_ != nullptr) metrics_->consolidations.add(1);
    FlowState* flow = flows_.find(descriptor.fid);
    if (flow != nullptr) {
      flow->recording = false;
      std::size_t released = 0;
      while (!descriptor.teardown && released < flow->held.size()) {
        const Held held = flow->held[released++];
        fast_path(held.packet, held.keep, descriptor.fid, held.teardown);
        if (held.teardown) break;
      }
      flow->held.erase(flow->held.begin(), flow->held.begin() + released);
    }
  }

  if (packet != nullptr) {
    if (!packet->dropped()) {
      deliver(packet, descriptor.keep);
    } else if (packet->faulted()) {
      // Injected NF faults are disjoint from policy drops so conservation
      // can separate them (packets == delivered + drops + faulted).
      ++stats_.overload.faulted;
      delete packet;
    } else {
      count_drop(packet);
    }
  }
  if (descriptor.teardown) finish_teardown(descriptor.fid);
}

void SpeedyBoxPipeline::fast_path(net::Packet* packet, bool keep,
                                  std::uint32_t fid, bool teardown) {
  const auto header = chain_.global_mat().process_header(*packet);
  stats_.events_triggered += header.events_triggered;
  if (header.rule_hit && header.degraded_rule) {
    ++stats_.overload.degraded_packets;
  }
  if (packet->dropped()) {
    count_drop(packet);
  } else if (!header.rule_hit || header.handlers.handlers.empty()) {
    // A pure header-action rule leaves nothing for the NF cores (and a
    // flow without a rule forwards the packet as-is). Recording
    // completion already ordered before READY, so the manager finishes the
    // packet directly.
    deliver(packet, keep);
  } else {
    Descriptor descriptor;
    descriptor.packet = packet;
    descriptor.keep = keep;
    descriptor.fid = fid;
    descriptor.teardown = teardown;
    descriptor.record = header.record;
    descriptor.handlers = header.handlers;
    dispatch(std::move(descriptor));
    return;
  }
  // The packet ends here, but the per-NF teardown hooks still have to run
  // on their owning cores: send a packet-less marker down the rings.
  if (teardown) dispatch_teardown_marker(fid);
}

void SpeedyBoxPipeline::submit(std::span<net::Packet> burst, bool keep) {
  if (stopped_) {
    throw std::logic_error("SpeedyBoxPipeline: submit after drain()");
  }
  for (net::Packet& packet : burst) admit(std::move(packet), keep);
  publish();
}

void SpeedyBoxPipeline::publish() {
  if (metrics_ == nullptr) return;
  // Manager-owned tables only: the NF-internal state tables belong to the
  // worker threads, so the manager reports classifier + records.
  core::FlowTableStats tables = chain_.classifier().table_stats();
  tables.merge_from(chain_.global_mat().record_stats());
  publish_counts(*metrics_, stats_, chain_.classifier(), tables);
}

void SpeedyBoxPipeline::admit(net::Packet&& packet, bool keep) {
  drain_completions(false);

  // Shed packets never allocate a descriptor, never classify, never touch
  // a ring: the near-zero-cycle ingress path. The manager produces into
  // the first ring, whose real pressure joins the controller's virtual
  // gate; only the SpeedyBox path has a Global MAT to name doomed flows.
  if (controller_ != nullptr &&
      !admit_arrival(*controller_, packet,
                     {config_.speedybox ? &chain_ : nullptr,
                      rings_.front()->over_watermark(),
                      rings_.front()->size()},
                     stats_.overload, metrics_)) {
    return;
  }
  ++stats_.packets;

  auto* descriptor_packet = new net::Packet(std::move(packet));
  if (!config_.speedybox) {
    // Original path: no classifier, no MATs — a plain descriptor visits
    // every NF core.
    Descriptor descriptor;
    descriptor.packet = descriptor_packet;
    descriptor.keep = keep;
    dispatch(std::move(descriptor));
    return;
  }

  route(descriptor_packet, keep);
}

void SpeedyBoxPipeline::route(net::Packet* packet, bool keep) {
  // Parse and validate once; classify() takes the parse.
  const auto parsed = net::parse_packet(*packet);
  if (!parsed || !net::verify_ipv4_checksum(*packet, parsed->l3_offset)) {
    count_drop(packet);
    return;
  }
  const auto tuple =
      core::HashedTuple::of(net::extract_five_tuple(*packet, *parsed));
  core::PacketClassifier& classifier = chain_.classifier();
  if (const auto known = classifier.peek(tuple.tuple)) {
    FlowState* flow = flows_.find(*known);
    if (flow != nullptr && flow->closing) {
      // Behind the flow's FIN/RST: the packet starts the tuple's next flow
      // once the teardown completes, and is classified then.
      flow->held.push_back({packet, keep, /*teardown=*/false});
      if (metrics_ != nullptr) metrics_->held_packets.add(1);
      return;
    }
  }
  const auto classification = classifier.classify(*packet, tuple, *parsed);
  if (!classification) {
    count_drop(packet);
    return;
  }
  const std::uint32_t fid = classification->fid;
  const bool teardown = classification->teardown;
  FlowState& flow = *flows_.try_emplace(fid).first;
  flow.closing = teardown;

  if (classification->path == core::PacketClassifier::Path::kSubsequent) {
    if (flow.recording) {
      // Hold until the initial packet's consolidation completes,
      // preserving per-flow order and single-core access to the NFs'
      // per-flow state.
      flow.held.push_back({packet, keep, teardown});
      if (metrics_ != nullptr) metrics_->held_packets.add(1);
      return;
    }
    fast_path(packet, keep, fid, teardown);
    return;
  }

  if (controller_ != nullptr && controller_->degraded()) {
    // Graceful degradation: no recording traversal — the flow gets the
    // pre-consolidated default rule and goes straight to the fast path,
    // keeping the NF cores free for established flows.
    chain_.global_mat().install_default_rule(fid);
    ++stats_.overload.degraded_flows;
    fast_path(packet, keep, fid, teardown);
    return;
  }
  flow.recording = true;
  Descriptor descriptor;
  descriptor.packet = packet;
  descriptor.keep = keep;
  descriptor.fid = fid;
  descriptor.recording = true;
  descriptor.teardown = teardown;
  descriptor.record = &chain_.global_mat().open_flow(fid);
  dispatch(std::move(descriptor));
}

void SpeedyBoxPipeline::drain_completions(bool block_until_idle) {
  for (;;) {
    while (auto completed = completions_.try_pop()) {
      handle_completion(*completed);
    }
    if (!block_until_idle || in_flight_ == 0) return;
    std::this_thread::yield();
  }
}

void SpeedyBoxPipeline::stop() {
  if (stopped_) return;
  drain_completions(/*block_until_idle=*/true);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    stop_flags_[i]->store(true, std::memory_order_release);
    workers_[i].join();
  }
  drain_completions(false);
  stopped_ = true;
}

const RunStats& SpeedyBoxPipeline::drain(std::vector<net::Packet>* outputs) {
  stop();
  publish();
  if (outputs != nullptr) outputs->swap(sink_);
  sink_ = {};
  return stats_;
}

void SpeedyBoxPipeline::attach_telemetry(telemetry::Registry* registry,
                                         const std::string& label) {
  metrics_ = registry == nullptr
                 ? nullptr
                 : &registry->create_shard(label, chain_.nf_names());
  if (metrics_ != nullptr) {
    metrics_->ring_capacity.set(rings_.front()->capacity());
  }
}

}  // namespace speedybox::runtime
