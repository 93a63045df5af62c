#include "runtime/runner.hpp"

#include <algorithm>
#include <iterator>

#include "net/checksum.hpp"
#include "util/cycle_clock.hpp"
#include "util/field_count.hpp"

namespace speedybox::runtime {

/// Merge-site guard: merge_from below copies field by field, so a new
/// RunStats field that is not added there silently vanishes from every
/// sharded result. If this assert fires, extend merge_from (and, for a
/// counter telemetry exports, publish_counts) and then bump the count.
static_assert(util::field_count<RunStats>() == 13,
              "RunStats changed: update RunStats::merge_from and this count");

double RunStats::rate_mpps(platform::PlatformKind) const {
  double bottleneck = 0.0;
  for (std::size_t i = 0; i < stage_cycle_sum.size(); ++i) {
    if (stage_cycle_count[i] == 0) continue;
    bottleneck = std::max(bottleneck, stage_cycle_sum[i] /
                                          static_cast<double>(
                                              stage_cycle_count[i]));
  }
  if (bottleneck <= 0.0) return 0.0;
  return util::CycleClock::frequency_hz() / bottleneck / 1e6;
}

std::vector<double> RunStats::per_nf_mean_cycles() const {
  std::vector<double> means(per_nf_cycle_sum.size(), 0.0);
  for (std::size_t i = 0; i < means.size(); ++i) {
    if (i < per_nf_cycle_count.size() && per_nf_cycle_count[i] > 0) {
      means[i] = static_cast<double>(per_nf_cycle_sum[i]) /
                 static_cast<double>(per_nf_cycle_count[i]);
    }
  }
  return means;
}

util::LogHistogram RunStats::latency_cycles_all() const {
  util::LogHistogram all = latency_cycles_initial;
  all.merge(latency_cycles_subsequent);
  return all;
}

void RunStats::merge_from(const RunStats& other) {
  latency_cycles_initial.merge(other.latency_cycles_initial);
  latency_cycles_subsequent.merge(other.latency_cycles_subsequent);
  latency_cycles_subsequent_sequential.merge(
      other.latency_cycles_subsequent_sequential);
  platform_cycles_initial.merge(other.platform_cycles_initial);
  platform_cycles_subsequent.merge(other.platform_cycles_subsequent);

  packets += other.packets;
  drops += other.drops;
  events_triggered += other.events_triggered;

  const auto grow = [](auto& vec, std::size_t size) {
    if (vec.size() < size) vec.resize(size, 0);
  };
  grow(per_nf_cycle_sum, other.per_nf_cycle_sum.size());
  grow(per_nf_cycle_count, other.per_nf_cycle_count.size());
  for (std::size_t i = 0; i < other.per_nf_cycle_sum.size(); ++i) {
    per_nf_cycle_sum[i] += other.per_nf_cycle_sum[i];
  }
  for (std::size_t i = 0; i < other.per_nf_cycle_count.size(); ++i) {
    per_nf_cycle_count[i] += other.per_nf_cycle_count[i];
  }

  grow(stage_cycle_sum, other.stage_cycle_sum.size());
  grow(stage_cycle_count, other.stage_cycle_count.size());
  for (std::size_t i = 0; i < other.stage_cycle_sum.size(); ++i) {
    stage_cycle_sum[i] += other.stage_cycle_sum[i];
  }
  for (std::size_t i = 0; i < other.stage_cycle_count.size(); ++i) {
    stage_cycle_count[i] += other.stage_cycle_count[i];
  }

  overload.merge_from(other.overload);
}

void publish_counts(telemetry::ShardMetrics& metrics, const RunStats& stats,
                    const core::PacketClassifier& classifier,
                    const core::FlowTableStats& tables) noexcept {
  metrics.packets.set(stats.packets);
  metrics.drops.set(stats.drops);
  metrics.events_triggered.set(stats.events_triggered);
  metrics.admitted.set(stats.overload.admitted);
  metrics.shed_watermark.set(stats.overload.shed_watermark);
  metrics.shed_early_drop.set(stats.overload.shed_early_drop);
  metrics.faulted.set(stats.overload.faulted);
  metrics.degraded_flows.set(stats.overload.degraded_flows);
  metrics.degraded_packets.set(stats.overload.degraded_packets);
  metrics.mat_hits.set(classifier.subsequent_count());
  metrics.mat_misses.set(classifier.initial_count());
  metrics.active_flows.set(classifier.active_flows());
  metrics.flow_table_entries.set(tables.entries);
  metrics.flow_table_capacity.set(tables.capacity);
  metrics.flow_table_slab_bytes.set(tables.slab_bytes);
  metrics.flow_table_max_probe.set(tables.max_probe);
  metrics.flow_table_resize_steps.set(tables.resize_steps);
}

ChainRunner::ChainRunner(ServiceChain& chain, RunConfig config,
                         const platform::PlatformCosts& costs)
    : chain_(chain),
      config_(config),
      costs_(costs),
      batch_(config.batch_size) {
  if (config_.cycle_model && !config_.speedybox) {
    stats_.per_nf_cycle_sum.assign(chain.size(), 0);
    stats_.per_nf_cycle_count.assign(chain.size(), 0);
  }
  if (config_.overload.enabled) {
    controller_ = std::make_unique<OverloadController>(config_.overload);
  }
}

void ChainRunner::attach_telemetry(telemetry::Registry* registry,
                                   const std::string& label) {
  if (registry == nullptr) {
    set_telemetry(nullptr);
    return;
  }
  set_telemetry(&registry->create_shard(label, chain_.nf_names()));
}

void ChainRunner::add_stage_sample(std::size_t stage, std::uint64_t cycles) {
  if (stats_.stage_cycle_sum.size() <= stage) {
    stats_.stage_cycle_sum.resize(stage + 1, 0.0);
    stats_.stage_cycle_count.resize(stage + 1, 0);
  }
  stats_.stage_cycle_sum[stage] += static_cast<double>(cycles);
  ++stats_.stage_cycle_count[stage];
}

void ChainRunner::run_recording_path(
    net::Packet& packet,
    const core::PacketClassifier::Classification& classification,
    std::uint64_t classify_cycles, std::uint64_t t_start,
    std::uint64_t ingress_cycles, PacketOutcome& outcome) {
  outcome.work_cycles = classify_cycles;
  // Slow path: each segment below has its own timer pair, so telemetry
  // between segments stays invisible to the reported cycles. The timers
  // run for the cycle model and for attached telemetry only.
  const bool timed = config_.cycle_model || metrics_ != nullptr;
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  bool trace = false;
  if (metrics_ != nullptr) {
    metrics_->classify_cycles.record(classify_cycles);
    if (spans != nullptr && spans->should_sample(classification.fid)) {
      trace = true;
      spans->begin(classification.fid, classification.fid, t_start);
      spans->event(telemetry::SpanStage::kClassify, classify_cycles);
    }
  }
  // Recording pass down the original chain into the flow's record, then
  // consolidation.
  core::FlowRecord& record =
      chain_.global_mat().open_flow(classification.fid);
  std::uint64_t visited = 0;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    core::SpeedyBoxContext ctx{record, i, classification.fid};
    const std::uint64_t t0 = timed ? util::CycleClock::now() : 0;
    chain_.nf(i).process(packet, &ctx);
    ++visited;
    if (timed) {
      const std::uint64_t cycles =
          util::CycleClock::segment(t0, util::CycleClock::now());
      outcome.work_cycles += cycles;
      if (metrics_ != nullptr && i < metrics_->per_nf.size()) {
        metrics_->per_nf[i].packets.add(1);
        metrics_->per_nf[i].cycles.record(cycles);
      }
      if (trace) {
        spans->event(telemetry::SpanStage::kNf, outcome.work_cycles,
                     static_cast<int>(i));
      }
    }
    if (packet.dropped()) {
      outcome.dropped = true;
      outcome.faulted = packet.faulted();
      break;
    }
  }
  const std::uint64_t t0 = timed ? util::CycleClock::now() : 0;
  chain_.global_mat().consolidate_flow(classification.fid);
  if (!timed) return;
  const std::uint64_t consolidate_cycles =
      util::CycleClock::segment(t0, util::CycleClock::now());
  outcome.work_cycles += consolidate_cycles;
  if (config_.cycle_model) {
    // Modeled latency: the work plus one platform hop per NF visited and
    // the packet's share of the rx burst cost.
    outcome.latency_cycles =
        outcome.work_cycles + ingress_cycles + hop_cycles() * visited;
    outcome.platform_cycles = outcome.latency_cycles;
  }
  if (metrics_ != nullptr) {
    metrics_->consolidations.add(1);
    metrics_->consolidate_cycles.record(consolidate_cycles);
  }
  if (trace) {
    spans->event(telemetry::SpanStage::kConsolidate, outcome.work_cycles);
    spans->finish(/*fast_path=*/false, outcome.dropped,
                  outcome.work_cycles);
  }
}

void ChainRunner::run_fast_path(
    net::Packet& packet,
    const core::PacketClassifier::Classification& classification,
    std::uint64_t classify_cycles, std::uint64_t ingress_cycles,
    PacketOutcome& outcome) {
  // Fast path: Global MAT (event check + consolidated HA + SF batches),
  // under one timer pair when the cycle model or telemetry reads it.
  const bool model = config_.cycle_model;
  const bool timed = model || metrics_ != nullptr;
  const std::uint64_t t_start = timed ? util::CycleClock::now() : 0;
  const auto result =
      chain_.global_mat().process(packet, &classification.parsed, model);
  outcome.dropped = result.dropped;
  outcome.degraded = result.degraded_rule;
  outcome.events_triggered = result.events_triggered;
  outcome.fast_path = true;
  if (!timed) return;
  // Remove this measurement's own overhead plus that of the timer pairs
  // GlobalMat used internally for batch attribution, then add the packet's
  // share of the batched classifier pass.
  const std::uint64_t raw = util::CycleClock::now() - t_start;
  const std::uint64_t timer_cost =
      util::CycleClock::timer_overhead() * (1 + result.timer_pairs);
  const std::uint64_t total =
      classify_cycles + (raw > timer_cost ? raw - timer_cost : 0);
  outcome.work_cycles = total;
  const std::uint64_t serial =
      total > result.sf_total_cycles ? total - result.sf_total_cycles : 0;
  if (model) account_fast_path_model(result, serial, ingress_cycles, outcome);

  // Fast path: one timer pair brackets the whole path, so every hook —
  // including the sampling decision — runs after the closing now().
  // Span events are rebuilt from the already-measured splits; only the
  // model times the state functions apart, so without it the span
  // carries the total alone.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  if (spans != nullptr && spans->should_sample(classification.fid)) {
    spans->begin(classification.fid, classification.fid, t_start);
    if (model) {
      spans->event(telemetry::SpanStage::kHeaderAction, serial);
      if (result.sf_total_cycles > 0) {
        spans->event(telemetry::SpanStage::kStateFunctions, total);
      }
    }
    spans->finish(/*fast_path=*/true, outcome.dropped, total);
  }
}

void ChainRunner::account_fast_path_model(
    const core::GlobalMat::FastPathResult& result, std::uint64_t serial,
    std::uint64_t ingress_cycles, PacketOutcome& outcome) {
  const std::uint64_t hop = hop_cycles();
  outcome.platform_cycles = outcome.work_cycles + hop + ingress_cycles;

  // Latency model: everything except the state functions (classifier,
  // event check, consolidated header action) is serial; state functions
  // contribute their Table-I critical path plus one fork/join per
  // multi-batch group — adaptively: a group is only dispatched in
  // parallel when the overlap actually beats the fork/join cost, so
  // parallelism never makes latency worse. The sequential latency (state
  // functions counted one after another) is kept beside it for the Fig. 7
  // HA/SF split.
  std::uint64_t sf_cycles = result.sf_total_cycles;
  if (result.multi_batch_groups > 0) {
    const std::uint64_t parallel =
        result.sf_critical_path_cycles +
        costs_.fork_join_cycles *
            static_cast<std::uint64_t>(result.multi_batch_groups);
    sf_cycles = std::min(sf_cycles, parallel);
  }
  outcome.latency_cycles = serial + sf_cycles + hop + ingress_cycles;
  outcome.latency_cycles_sequential =
      serial + result.sf_total_cycles + hop + ingress_cycles;

  // Rate model stages (steady state): the serial front end and the
  // state-function execution pipeline against each other on ONVM; on
  // BESS the whole fast path is one logical stage. The front end fronts
  // the rx burst, so its stage carries the ingress share.
  if (config_.platform == platform::PlatformKind::kOnvm) {
    add_stage_sample(0, serial + hop + ingress_cycles);
    if (sf_cycles > 0) add_stage_sample(1, sf_cycles);
  } else {
    add_stage_sample(0, outcome.latency_cycles);
  }
}

void ChainRunner::apply_teardown(
    const core::PacketClassifier::Classification& classification) {
  // Flow teardown (FIN/RST): run the record's hooks, free it and the FID
  // (§VI-B). Timed only while telemetry is attached.
  if (!classification.teardown) return;
  const std::uint64_t t0 = metrics_ != nullptr ? util::CycleClock::now() : 0;
  chain_.global_mat().erase_flow(classification.fid);
  chain_.classifier().release_flow(classification.fid);
  if (metrics_ != nullptr) {
    metrics_->teardown_cycles.record(
        util::CycleClock::segment(t0, util::CycleClock::now()));
    metrics_->teardowns.add(1);
  }
}

PacketOutcome ChainRunner::process_packet(net::Packet& packet) {
  // A packet is a burst of one (DESIGN.md §8): the batched path is the only
  // packet path, and a one-slot batch has no in-batch ordering hazard.
  net::PacketBatch batch{1};
  batch.push(&packet);
  std::vector<PacketOutcome> outcomes;
  process_batch(batch, outcomes);
  return outcomes.front();
}

void ChainRunner::process_batch(net::PacketBatch& batch,
                                std::vector<PacketOutcome>& outcomes) {
  outcomes.assign(batch.size(), PacketOutcome{});
  if (batch.empty()) return;
  if (controller_ != nullptr) {
    // Ingress gate, in slot order, before any chain work: shed slots are
    // masked out of the traversal (they never entered the data path and
    // are not counted in RunStats.packets). Only the SpeedyBox path has a
    // Global MAT to name doomed flows.
    IngressSource source;
    if (config_.speedybox) source.chain = &chain_;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch.valid(i)) continue;
      net::Packet& packet = batch.packet(i);
      if (admit_arrival(*controller_, packet, source, stats_.overload,
                        metrics_)) {
        continue;
      }
      packet.mark_dropped();
      outcomes[i].dropped = true;
      outcomes[i].shed = true;
      batch.mask(i);
    }
  }
  if (metrics_ != nullptr) metrics_->batch_occupancy.record(batch.size());
  if (config_.speedybox) {
    process_speedybox_batch(batch, outcomes);
  } else {
    process_original_batch(batch, outcomes);
  }
  if (metrics_ != nullptr) {
    publish_counts(*metrics_, stats_, chain_.classifier(),
                   chain_.flow_table_stats());
  }
}

void ChainRunner::process_original_batch(
    net::PacketBatch& batch, std::vector<PacketOutcome>& outcomes) {
  const bool model = config_.cycle_model;
  const bool timed = model || metrics_ != nullptr;
  const bool onvm = config_.platform == platform::PlatformKind::kOnvm;
  const std::uint64_t hop = hop_cycles();
  const std::size_t n = batch.size();

  // Pre-pass in slot order, outside the measured regions: the model's
  // init/sub tagging and span sampling. The insert/erase sequence on
  // seen_tuples_ only depends on the tuple order, which slots preserve.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  std::vector<std::uint8_t> traced(n, 0);
  // Slots already masked when the batch arrives are skipped end to end —
  // only slots live here are processed and accounted.
  std::vector<std::uint8_t> entered_batch(n);
  std::size_t live_entry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    entered_batch[i] = batch.valid(i) ? 1 : 0;
    if (!batch.valid(i)) continue;
    ++live_entry;
    if (!model && spans == nullptr) continue;
    if (const auto parsed = net::parse_packet(batch.packet(i))) {
      const auto flow = core::HashedTuple::of(
          net::extract_five_tuple(batch.packet(i), *parsed));
      if (model) {
        outcomes[i].initial =
            seen_tuples_.try_emplace(flow.tuple, flow.hash).second;
        if (parsed->has_fin_or_rst()) {
          seen_tuples_.erase(flow.tuple, flow.hash);
        }
      }
      if (spans != nullptr && spans->should_sample(flow.hash.value)) {
        traced[i] = 1;
        spans->begin(flow.hash.value, net::kInvalidFid,
                     util::CycleClock::now());
      }
    }
  }

  // One rx-burst fixed cost per batch, shared by the packets that entered
  // it — the vector-I/O amortization (a burst of one pays it all).
  const std::uint64_t ingress =
      live_entry > 0 ? costs_.rx_burst_fixed_cycles / live_entry : 0;

  // NF-major traversal: NF k processes the whole burst (one timer pair per
  // NF per batch when timed), then hands it to NF k+1 — the BESS/VPP
  // execution shape. Per-flow packet order within each NF is slot order,
  // and no state is shared across NFs on the original path, so every NF
  // sees exactly the state and bytes it would packet-at-a-time. A slot
  // masked by NF k (dropped) skips NFs k+1.., as a packet-at-a-time chain
  // exits early.
  std::vector<std::uint8_t> entered(n);
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    std::size_t live = 0;
    for (std::size_t s = 0; s < n; ++s) {
      entered[s] = batch.valid(s) ? 1 : 0;
      live += entered[s];
    }
    if (live == 0) break;

    const std::uint64_t t0 = timed ? util::CycleClock::now() : 0;
    chain_.nf(i).process_batch(batch, {});
    if (!timed) continue;
    const std::uint64_t cycles =
        util::CycleClock::segment(t0, util::CycleClock::now());
    // Per-packet attribution: equal share of the batch segment (the batch
    // amortizes the timer pair; a batch of one gets the whole segment).
    const std::uint64_t share = cycles / live;

    for (std::size_t s = 0; s < n; ++s) {
      if (entered[s] == 0) continue;
      outcomes[s].work_cycles += share;
      if (model) {
        outcomes[s].latency_cycles += share + hop;
        stats_.per_nf_cycle_sum[i] += share + hop;
        ++stats_.per_nf_cycle_count[i];
        if (onvm && !outcomes[s].initial) {
          add_stage_sample(i, share + hop + (i == 0 ? ingress : 0));
        }
      }
      if (metrics_ != nullptr && i < metrics_->per_nf.size()) {
        metrics_->per_nf[i].packets.add(1);
        metrics_->per_nf[i].cycles.record(share);
      }
      if (traced[s] != 0) {
        spans->event(telemetry::SpanStage::kNf, outcomes[s].work_cycles,
                     static_cast<int>(i));
      }
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (entered_batch[s] == 0) continue;
    const net::Packet& packet = batch.packet(s);
    if (packet.dropped()) {
      outcomes[s].dropped = true;
      outcomes[s].faulted = packet.faulted();
    }
    if (model) {
      outcomes[s].latency_cycles += ingress;
      outcomes[s].platform_cycles = outcomes[s].latency_cycles;
      if (!onvm && !outcomes[s].initial) {
        add_stage_sample(0, outcomes[s].latency_cycles);
      }
    }
    if (traced[s] != 0) {
      spans->finish(/*fast_path=*/false, outcomes[s].dropped,
                    outcomes[s].work_cycles);
    }
    account(outcomes[s]);
  }
}

void ChainRunner::process_speedybox_batch(
    net::PacketBatch& batch, std::vector<PacketOutcome>& outcomes) {
  // Staged group prefetching (DESIGN.md §8): each level of a fast-path
  // packet's dependent loads is requested a whole pass before it is read —
  // the classifier's lines in the pre-pass, the flow record's leading lines
  // in the classify pass, the lines the record names in the warm pass —
  // and execution then runs in slot order.
  const std::size_t n = batch.size();
  if (slots_.size() < n) slots_.resize(n);
  core::PacketClassifier& classifier = chain_.classifier();
  core::GlobalMat& mat = chain_.global_mat();
  const bool timed = config_.cycle_model || metrics_ != nullptr;
  // Telemetry times the pre-pass and the warm passes into one
  // batch_prep_cycles sample per batch. They share the classify passes'
  // stamps, so a one-segment batch pays one more timer pair.
  const bool prep_timed = metrics_ != nullptr;
  const std::uint64_t prep_start = prep_timed ? util::CycleClock::now() : 0;

  // Pre-pass, stateless: parse + checksum-validate every live packet once
  // for the whole traversal, hash its tuple once for the classifier, and
  // prefetch the classifier lines its lookup starts at.
  std::size_t live_entry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!batch.valid(i)) continue;
    ++live_entry;
    const net::Packet& packet = batch.packet(i);
    SlotScratch& slot = slots_[i];
    slot.parsed = net::parse_packet(packet);
    if (slot.parsed &&
        !net::verify_ipv4_checksum(packet, slot.parsed->l3_offset)) {
      slot.parsed.reset();
    }
    if (!slot.parsed) continue;
    slot.flow =
        core::HashedTuple::of(net::extract_five_tuple(packet, *slot.parsed));
    classifier.prefetch(slot.flow.hash);
  }
  // One rx-burst fixed cost per batch, shared by the packets that entered
  // it — the vector-I/O amortization (a burst of one pays it all).
  const std::uint64_t ingress =
      live_entry > 0 ? costs_.rx_burst_fixed_cycles / live_entry : 0;

  // Segment loop. Classification is stateful (flow-table inserts, teardown
  // releases), so the burst is classified front-to-back and cut at the one
  // ordering hazard: a packet whose 5-tuple was torn down (FIN/RST) by an
  // EARLIER slot of the same segment must not be classified until that
  // teardown has executed — in arrival order it is a fresh flow. Everything
  // else (initial-then-subsequent of one flow, cross-flow interleavings)
  // classifies identically up front because execution never touches the
  // classifier outside apply_teardown.
  std::uint64_t t0 = timed ? util::CycleClock::now() : 0;
  std::uint64_t prep_cycles =
      prep_timed ? util::CycleClock::segment(prep_start, t0) : 0;
  std::size_t begin = 0;
  while (begin < n) {
    torn_.clear();
    // Classify pass under ONE timer pair (when timed) — the classifier
    // cost amortizes across the burst instead of paying a pair per packet.
    // A fast-path slot's record is prefetched as soon as its FID is known.
    std::size_t end = begin;
    std::size_t classified = 0;
    for (; end < n; ++end) {
      if (!batch.valid(end)) continue;
      SlotScratch& slot = slots_[end];
      if (slot.parsed && std::find(torn_.begin(), torn_.end(),
                                   slot.flow.tuple) != torn_.end()) {
        break;  // flush boundary: reuse of a just-torn-down tuple
      }
      slot.classification =
          slot.parsed ? classifier.classify(batch.packet(end), slot.flow,
                                            *slot.parsed)
                      : std::nullopt;
      ++classified;
      if (!slot.classification) continue;
      if (slot.classification->teardown) torn_.push_back(slot.flow.tuple);
      if (slot.classification->path ==
          core::PacketClassifier::Path::kSubsequent) {
        mat.prefetch(slot.classification->fid);
      }
    }
    const std::uint64_t t1 = timed ? util::CycleClock::now() : 0;
    const std::uint64_t classify_segment =
        timed ? util::CycleClock::segment(t0, t1) : 0;
    const std::uint64_t classify_share =
        classified > 0 ? classify_segment / classified : 0;

    // Warm pass: the records arrived during the classify pass; prefetch
    // the lines each fast-path record names (condition and handler arrays,
    // the NF state they read).
    for (std::size_t i = begin; i < end; ++i) {
      if (!batch.valid(i)) continue;
      const auto& classification = slots_[i].classification;
      if (classification && classification->path ==
                                core::PacketClassifier::Path::kSubsequent) {
        mat.prefetch_hot(classification->fid);
      }
    }
    if (prep_timed) {
      prep_cycles += util::CycleClock::segment(t1, util::CycleClock::now());
    }

    // Execution pass, in slot order — recording packets take the
    // per-packet recording pass (DESIGN.md §8: once per flow, and its NF
    // state writes must interleave in arrival order), fast-path packets run
    // the consolidated rule, teardowns release their flow, each at its
    // slot.
    for (std::size_t i = begin; i < end; ++i) {
      if (!batch.valid(i)) continue;
      PacketOutcome& outcome = outcomes[i];
      const SlotScratch& slot = slots_[i];
      if (!slot.classification) {
        batch.packet(i).mark_dropped();
        outcome.dropped = true;
        outcome.work_cycles = classify_share;
        if (config_.cycle_model) {
          outcome.platform_cycles = outcome.latency_cycles =
              classify_share + ingress;
        }
        batch.mask(i);
        account(outcome);
        continue;
      }
      const auto& classification = *slot.classification;
      outcome.initial =
          classification.path == core::PacketClassifier::Path::kInitial;
      if (outcome.initial && recording_suspended()) {
        // Graceful degradation (DESIGN.md §9): no recording traversal — the
        // flow gets a pre-consolidated pure-forward default rule and this
        // packet executes it on the fast path.
        chain_.global_mat().install_default_rule(classification.fid);
        ++stats_.overload.degraded_flows;
        run_fast_path(batch.packet(i), classification, classify_share,
                      ingress, outcome);
      } else if (outcome.initial) {
        run_recording_path(batch.packet(i), classification, classify_share,
                           t0, ingress, outcome);
      } else {
        run_fast_path(batch.packet(i), classification, classify_share,
                      ingress, outcome);
      }
      apply_teardown(classification);
      if (outcome.dropped) batch.mask(i);
      account(outcome);
    }
    begin = end;
    if (timed && begin < n) t0 = util::CycleClock::now();
  }
  if (prep_timed) metrics_->batch_prep_cycles.record(prep_cycles);
}

void ChainRunner::account(const PacketOutcome& outcome) {
  ++stats_.packets;
  // Faulted packets are dropped too, but counted apart from policy/NF
  // drops so conservation (packets = delivered + drops + faulted) can
  // separate failures from behavior.
  if (outcome.faulted) {
    ++stats_.overload.faulted;
  } else if (outcome.dropped) {
    ++stats_.drops;
  }
  if (outcome.degraded) ++stats_.overload.degraded_packets;
  stats_.events_triggered += outcome.events_triggered;

  if (metrics_ != nullptr) {
    if (outcome.fast_path) {
      metrics_->fastpath_cycles.record(outcome.work_cycles);
    } else if (outcome.initial || !config_.speedybox) {
      metrics_->slowpath_cycles.record(outcome.work_cycles);
    }
  }
  if (!config_.cycle_model) return;

  double latency = static_cast<double>(outcome.latency_cycles);
  if (controller_ != nullptr) {
    // Queueing delay model (stats-only, DESIGN.md §9): a packet admitted
    // behind a virtual queue of depth d waits ~d service times. The EMA is
    // fed the pure service latency before the wait is added, so the model
    // never compounds itself. Bounded queue => bounded reported tail.
    service_ema_cycles_ = service_ema_cycles_ <= 0.0
                              ? latency
                              : 0.99 * service_ema_cycles_ + 0.01 * latency;
    latency += controller_->queue_depth() * service_ema_cycles_;
  }
  if (outcome.initial) {
    stats_.latency_cycles_initial.add(latency);
    stats_.platform_cycles_initial.add(
        static_cast<double>(outcome.platform_cycles));
  } else {
    stats_.latency_cycles_subsequent.add(latency);
    stats_.platform_cycles_subsequent.add(
        static_cast<double>(outcome.platform_cycles));
    if (outcome.fast_path) {
      stats_.latency_cycles_subsequent_sequential.add(
          static_cast<double>(outcome.latency_cycles_sequential));
    }
  }
}

std::size_t ChainRunner::expire_idle_flows(double max_idle_us) {
  if (!config_.speedybox) return 0;
  // Convert first: the first from_ns call calibrates the clock for 20 ms,
  // which must not fall between the now() stamp and the scan.
  const std::uint64_t max_idle = util::CycleClock::from_ns(max_idle_us * 1e3);
  const std::vector<std::uint32_t> idle =
      chain_.classifier().collect_idle(util::CycleClock::now(), max_idle);
  for (const std::uint32_t fid : idle) {
    chain_.global_mat().erase_flow(fid);
    chain_.classifier().release_flow(fid);
  }
  return idle.size();
}

void ChainRunner::submit(std::span<net::Packet> burst, bool keep) {
  const std::size_t size = std::max<std::size_t>(1, config_.batch_size);
  for (std::size_t offset = 0; offset < burst.size(); offset += size) {
    const std::size_t end = std::min(burst.size(), offset + size);
    batch_.clear();
    // One arrival stamp per batch: its only reader is the classifier's
    // idle clock.
    const std::uint64_t arrival = util::CycleClock::now();
    for (std::size_t k = offset; k < end; ++k) {
      burst[k].set_arrival_cycle(arrival);
      batch_.push(&burst[k]);
    }
    process_batch(batch_, outcomes_);
  }
  if (keep) {
    kept_.insert(kept_.end(), std::make_move_iterator(burst.begin()),
                 std::make_move_iterator(burst.end()));
  }
}

const RunStats& ChainRunner::drain(std::vector<net::Packet>* outputs) {
  if (outputs != nullptr) outputs->swap(kept_);
  kept_.clear();
  return stats_;
}

}  // namespace speedybox::runtime
