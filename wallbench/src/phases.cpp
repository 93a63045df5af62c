#include "phases.hpp"

#include <algorithm>
#include <numeric>

#include "host.hpp"
#include "runtime/sharded_runtime.hpp"
#include "telemetry/metrics.hpp"
#include "timed_nf.hpp"
#include "util/cycle_clock.hpp"
#include "util/hash.hpp"

namespace wallbench {

namespace plan = speedybox::plan;
namespace runtime = speedybox::runtime;
namespace telemetry = speedybox::telemetry;

namespace {

constexpr std::size_t kBatch = 32;
/// Closed-loop runner passes hand Executor::run this many packets per call,
/// so the materialized input of a call stays small.
constexpr std::size_t kChunk = 16384;

runtime::RunConfig speedybox_config() {
  runtime::RunConfig config;
  config.platform = speedybox::platform::PlatformKind::kBess;
  config.speedybox = true;
  config.batch_size = kBatch;
  return config;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Checks every packet of a pass that returns its outputs in input order
/// (offset `begin`), and returns how many were delivered.
std::uint64_t check_all(Bench& bench, std::size_t begin,
                        std::vector<net::Packet>& outputs) {
  std::uint64_t delivered = 0;
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    bench.check(begin + k, outputs[k]);
    delivered += outputs[k].dropped() ? 0 : 1;
  }
  return delivered;
}

double max_over_mean(const std::vector<std::uint64_t>& values) {
  if (values.empty()) return 0.0;
  const double sum = static_cast<double>(
      std::accumulate(values.begin(), values.end(), std::uint64_t{0}));
  const double max =
      static_cast<double>(*std::max_element(values.begin(), values.end()));
  return sum > 0.0 ? max * static_cast<double>(values.size()) / sum : 0.0;
}

const speedybox::util::LogHistogram* histogram(
    const telemetry::ShardSnapshot& shard, const std::string& name) {
  for (const auto& [key, value] : shard.histograms) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::uint64_t counter(const telemetry::ShardSnapshot& shard,
                      const std::string& name) {
  for (const auto& [key, value] : shard.counters) {
    if (key == name) return value;
  }
  return 0;
}

void absorb_telemetry(const telemetry::Registry& registry, Traced& traced) {
  const telemetry::ShardSnapshot all = registry.snapshot().aggregate();
  traced.fastpath.merge(*histogram(all, "fastpath_cycles"));
  traced.slowpath.merge(*histogram(all, "slowpath_cycles"));
  traced.classify.merge(*histogram(all, "classify_cycles"));
  traced.consolidate.merge(*histogram(all, "consolidate_cycles"));
  traced.events += counter(all, "events_triggered");
  traced.consolidations += counter(all, "consolidations");
  traced.teardowns += counter(all, "teardowns");
}

void absorb_chain(runtime::ServiceChain& chain, Traced& traced) {
  traced.initial += chain.classifier().initial_count();
  traced.subsequent += chain.classifier().subsequent_count();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto& nf = dynamic_cast<const TimedNf&>(chain.nf(i));
    Traced::NfTotals& totals = traced.nf[nf.kind()];
    totals.calls += nf.calls();
    totals.busy_ns += nf.busy_ns();
    totals.drops += nf.drops();
    if (i == 0) traced.first_nf_calls += nf.calls();
  }
}

/// One flow-table sample; `final` marks the last one of a pass, whose
/// cumulative counters are kept.
void sample_tables(const speedybox::core::FlowTableStats& stats, bool final,
                   Traced& traced) {
  traced.entries_max = std::max<std::uint64_t>(traced.entries_max,
                                               stats.entries);
  traced.max_probe = std::max(traced.max_probe, stats.max_probe);
  traced.slab_bytes_max = std::max(traced.slab_bytes_max,
                                   static_cast<double>(stats.slab_bytes));
  if (!final) return;
  traced.resizes += stats.resizes;
  traced.lookups += stats.lookups;
  traced.probe_total += stats.probe_total;
  traced.tombstone_share =
      stats.capacity == 0 ? 0.0
                          : static_cast<double>(stats.tombstones) /
                                static_cast<double>(stats.capacity);
}

speedybox::core::FlowTableStats sharded_tables(runtime::ShardedRuntime& rt) {
  speedybox::core::FlowTableStats stats;
  for (std::size_t k = 0; k < rt.shard_count(); ++k) {
    stats.merge_from(rt.shard_chain(k).flow_table_stats());
  }
  return stats;
}

// -- Runner ------------------------------------------------------------------

void closed_pass_runner(Bench& bench, ClosedLoop& loop) {
  const PacketArena& arena = *bench.arena;
  auto chain = plan::build_chain(bench.spec);
  runtime::ChainRunner runner(*chain, speedybox_config());
  runtime::Executor& executor = runner;
  const std::uint64_t rss_before = rss_bytes();
  std::vector<net::Packet> outputs;
  std::uint64_t delivered = 0;
  std::int64_t timed_ns = 0;
  for (std::size_t begin = 0; begin < arena.size(); begin += kChunk) {
    const std::size_t end = std::min(arena.size(), begin + kChunk);
    const std::vector<net::Packet> input = arena.packets(begin, end);
    const std::int64_t start = now_ns();
    executor.run(input, &outputs);
    timed_ns += now_ns() - start;
    delivered += check_all(bench, begin, outputs);
  }
  loop.timed_ns += timed_ns;
  if (loop.passes == 0) {
    loop.rss_bytes_per_packet =
        (static_cast<double>(rss_bytes()) - static_cast<double>(rss_before)) /
        static_cast<double>(arena.size());
  }
  bench.conserve(runner.stats(), arena.size(), delivered, "closed loop");
  loop.model_mpps = runner.stats().rate_mpps(speedybox_config().platform);
}

/// The runner's own batch loop (what Executor::run does, minus its per-flow
/// bookkeeping), so that spans can sit around each process_batch call. With
/// `traced` null it runs bare: the baseline of the tracing overhead.
void batch_pass_runner(Bench& bench, ClosedLoop& loop, Traced* traced) {
  const PacketArena& arena = *bench.arena;
  SpanLog* spans = traced != nullptr ? &traced->spans : nullptr;
  auto chain = spans != nullptr ? build_timed_chain(bench.spec, spans)
                                : plan::build_chain(bench.spec);
  runtime::ChainRunner runner(*chain, speedybox_config());
  telemetry::Registry registry;
  if (traced != nullptr) runner.attach_telemetry(&registry, "wallbench");

  const std::uint32_t batch_name =
      spans != nullptr ? spans->intern("batch") : 0;
  const std::uint32_t run_span =
      spans != nullptr
          ? spans->open(spans->intern("run"), Span::kNoParent,
                        static_cast<std::uint64_t>(loop.passes), now_ns())
          : Span::kNoParent;
  std::vector<net::Packet> local(kBatch);
  std::vector<net::Packet> outputs;
  std::vector<runtime::PacketOutcome> outcomes;
  net::PacketBatch batch{kBatch};
  std::uint64_t batch_index = 0;
  std::uint64_t delivered = 0;
  std::int64_t timed_ns = 0;
  for (std::size_t begin = 0; begin < arena.size(); begin += kChunk) {
    const std::size_t end = std::min(arena.size(), begin + kChunk);
    const std::vector<net::Packet> input = arena.packets(begin, end);
    outputs.clear();
    const std::int64_t start = now_ns();
    for (std::size_t offset = 0; offset < input.size(); offset += kBatch) {
      const std::size_t count = std::min(kBatch, input.size() - offset);
      batch.clear();
      const std::uint64_t arrival = speedybox::util::CycleClock::now();
      for (std::size_t k = 0; k < count; ++k) {
        local[k] = input[offset + k];
        local[k].set_arrival_cycle(arrival);
        batch.push(&local[k]);
      }
      if (spans != nullptr) {
        const std::uint32_t span =
            spans->open(batch_name, run_span, batch_index++, now_ns());
        runner.process_batch(batch, outcomes);
        spans->close(span, now_ns());
        sample_tables(chain->flow_table_stats(), false, *traced);
      } else {
        runner.process_batch(batch, outcomes);
      }
      for (std::size_t k = 0; k < count; ++k) {
        outputs.push_back(std::move(local[k]));
      }
    }
    timed_ns += now_ns() - start;
    delivered += check_all(bench, begin, outputs);
  }
  loop.timed_ns += timed_ns;
  bench.conserve(runner.stats(), arena.size(), delivered, "batch loop");
  if (traced == nullptr) return;
  spans->close(run_span, now_ns());
  sample_tables(chain->flow_table_stats(), true, *traced);
  absorb_telemetry(registry, *traced);
  absorb_chain(*chain, *traced);
}

void open_pass_runner(Bench& bench, OpenLoop& out) {
  const PacketArena& arena = *bench.arena;
  auto chain = plan::build_chain(bench.spec);
  runtime::ChainRunner runner(*chain, speedybox_config());
  std::vector<net::Packet> local(kBatch);
  std::vector<runtime::PacketOutcome> outcomes;
  net::PacketBatch batch{kBatch};
  std::vector<double> flow_time(arena.flow_count(), 0.0);
  std::vector<double> flow_service(arena.flow_count(), 0.0);
  std::uint64_t delivered = 0;

  const std::int64_t start = now_ns() + 100'000;
  const OpenLoopSchedule schedule(bench.def.offered_mpps * 1e6, start);
  std::int64_t ready = start;
  std::int64_t last_handover = start;
  for (std::size_t i = 0; i < arena.size();) {
    const std::int64_t pickup = now_ns();
    if (schedule.due_ns(i) > pickup) continue;  // busy poll, like BESS
    batch.clear();
    std::size_t count = 0;
    const std::uint64_t arrival = speedybox::util::CycleClock::now();
    while (count < kBatch && i + count < arena.size() &&
           schedule.due_ns(i + count) <= pickup) {
      local[count] = arena.packet(i + count);
      local[count].set_arrival_cycle(arrival);
      batch.push(&local[count]);
      ++count;
    }
    out.lag_us.push_back(generator_lag_us(pickup, schedule.due_ns(i), ready));
    last_handover = pickup;
    runner.process_batch(batch, outcomes);
    const std::int64_t done = now_ns();
    for (std::size_t k = 0; k < count; ++k) {
      const bool ok = bench.check(i + k, local[k]);
      const double latency = latency_us(schedule.due_ns(i + k), done, !ok);
      out.latency_us.push_back(latency);
      flow_time[arena.flow(i + k)] += latency;
      flow_service[arena.flow(i + k)] += latency_us(pickup, done, !ok);
      delivered += local[k].dropped() ? 0 : 1;
    }
    i += count;
    ready = now_ns();
  }
  out.offered_ns += last_handover - start;
  out.flow_time_us.insert(out.flow_time_us.end(), flow_time.begin(),
                          flow_time.end());
  out.flow_service_us.insert(out.flow_service_us.end(), flow_service.begin(),
                             flow_service.end());
  bench.conserve(runner.stats(), arena.size(), delivered, "open loop");
}

// -- Sharded -----------------------------------------------------------------

void closed_pass_sharded(Bench& bench, ClosedLoop& loop) {
  const PacketArena& arena = *bench.arena;
  auto chain = plan::build_chain(bench.spec);
  const std::uint64_t rss_before = rss_bytes();
  std::vector<net::Packet> input = arena.packets(0, arena.size());
  runtime::ShardedRuntime rt(*chain, kShardedWorkers, speedybox_config());
  const std::int64_t start = now_ns();
  for (net::Packet& packet : input) rt.push(std::move(packet));
  const std::int64_t pushed = now_ns();
  runtime::ShardedRunResult result = rt.finish();
  const std::int64_t finished = now_ns();
  loop.timed_ns += finished - start;
  loop.push_ns += pushed - start;
  loop.finish_ns += finished - pushed;
  loop.backpressure_waits += rt.backpressure_waits();
  loop.shard_imbalance = max_over_mean(result.shard_packets);
  loop.model_mpps = result.aggregate_rate_mpps;
  if (loop.passes == 0) {
    loop.rss_bytes_per_packet =
        (static_cast<double>(rss_bytes()) - static_cast<double>(rss_before)) /
        static_cast<double>(arena.size());
  }
  input = {};
  // A packet finish() lost reads as an empty, mismatching output.
  result.packets.resize(arena.size());
  const std::uint64_t delivered = check_all(bench, 0, result.packets);
  bench.conserve(result.stats, arena.size(), delivered, "closed loop");
}

void traced_pass_sharded(Bench& bench, Traced& traced) {
  const PacketArena& arena = *bench.arena;
  SpanLog& spans = traced.spans;
  const std::uint32_t run_name = spans.intern("run");
  const std::uint32_t push_name = spans.intern("push_all");
  const std::uint32_t quiesce_name = spans.intern("quiesce");
  const std::uint32_t finish_name = spans.intern("finish");
  ClosedLoop& loop = traced.loop;

  auto chain = build_timed_chain(bench.spec, nullptr);
  std::vector<net::Packet> input = arena.packets(0, arena.size());
  telemetry::Registry registry;
  runtime::ShardedRuntime rt(*chain, kShardedWorkers, speedybox_config(),
                             1024, &registry, "wallbench/");
  const std::int64_t start = now_ns();
  const std::uint32_t run_span =
      spans.open(run_name, Span::kNoParent,
                 static_cast<std::uint64_t>(loop.passes), start);
  const std::uint32_t push_span = spans.open(push_name, run_span, 0, start);
  // The quiesce points stay in the timed interval: the workers process
  // packets while the dispatcher waits there, and the flow-table sampling
  // done there is tracing overhead.
  for (std::size_t i = 0; i < input.size(); ++i) {
    rt.push(std::move(input[i]));
    if ((i + 1) % 256 == 0) {
      traced.ring_occupancy_max =
          std::max(traced.ring_occupancy_max, rt.max_ring_occupancy());
    }
    if ((i + 1) % 65536 == 0) {
      const std::int64_t q0 = now_ns();
      rt.quiesce();
      sample_tables(sharded_tables(rt), false, traced);
      spans.child(quiesce_name, q0, now_ns());
    }
  }
  const std::int64_t pushed = now_ns();
  spans.close(push_span, pushed);
  const std::uint32_t finish_span = spans.open(finish_name, run_span, 1,
                                               pushed);
  runtime::ShardedRunResult result = rt.finish();
  const std::int64_t finished = now_ns();
  spans.close(finish_span, finished);
  spans.close(run_span, finished);
  loop.timed_ns += finished - start;
  loop.push_ns += pushed - start;
  loop.finish_ns += finished - pushed;
  loop.backpressure_waits += rt.backpressure_waits();
  loop.shard_imbalance = max_over_mean(result.shard_packets);
  loop.model_mpps = result.aggregate_rate_mpps;

  input = {};
  result.packets.resize(arena.size());
  const std::uint64_t delivered = check_all(bench, 0, result.packets);
  bench.conserve(result.stats, arena.size(), delivered, "traced loop");
  sample_tables(sharded_tables(rt), true, traced);
  absorb_telemetry(registry, traced);
  for (std::size_t k = 0; k < rt.shard_count(); ++k) {
    absorb_chain(rt.shard_chain(k), traced);
  }
}

void open_pass_sharded(Bench& bench, OpenLoop& out) {
  const PacketArena& arena = *bench.arena;
  auto chain = plan::build_chain(bench.spec);
  runtime::ShardedRuntime rt(*chain, kShardedWorkers, speedybox_config());
  std::vector<double> latency(arena.size(), 0.0);
  std::vector<double> service(arena.size(), 0.0);

  const std::int64_t start = now_ns() + 100'000;
  const OpenLoopSchedule schedule(bench.def.offered_mpps * 1e6, start);
  std::int64_t ready = start;
  std::int64_t last_handover = start;
  for (std::size_t i = 0; i < arena.size();) {
    const std::int64_t pickup = now_ns();
    if (schedule.due_ns(i) > pickup) continue;
    std::size_t count = 0;
    while (count < kBatch && i + count < arena.size() &&
           schedule.due_ns(i + count) <= pickup) {
      rt.push(arena.packet(i + count));
      ++count;
    }
    out.lag_us.push_back(generator_lag_us(pickup, schedule.due_ns(i), ready));
    last_handover = pickup;
    rt.quiesce();
    const std::int64_t done = now_ns();
    for (std::size_t k = 0; k < count; ++k) {
      latency[i + k] = latency_us(schedule.due_ns(i + k), done, false);
      service[i + k] = latency_us(pickup, done, false);
    }
    i += count;
    ready = now_ns();
  }
  runtime::ShardedRunResult result = rt.finish();
  out.offered_ns += last_handover - start;

  result.packets.resize(arena.size());
  std::vector<double> flow_time(arena.flow_count(), 0.0);
  std::vector<double> flow_service(arena.flow_count(), 0.0);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    if (!bench.check(i, result.packets[i])) {
      latency[i] = kFailedLatency;
      service[i] = kFailedLatency;
    }
    delivered += result.packets[i].dropped() ? 0 : 1;
    flow_time[arena.flow(i)] += latency[i];
    flow_service[arena.flow(i)] += service[i];
  }
  out.latency_us.insert(out.latency_us.end(), latency.begin(), latency.end());
  out.flow_time_us.insert(out.flow_time_us.end(), flow_time.begin(),
                          flow_time.end());
  out.flow_service_us.insert(out.flow_service_us.end(), flow_service.begin(),
                             flow_service.end());
  bench.conserve(result.stats, arena.size(), delivered, "open loop");
}

}  // namespace

bool Bench::check(std::size_t index, net::Packet& out) {
  if (options.corrupt_output && !out.dropped() && out.size() > 0) {
    out.bytes()[out.size() - 1] ^= 0xFF;
    options.corrupt_output = false;
  }
  if (output_digest(out) == reference[index]) return true;
  if (failed < 5) {
    errors.push_back("packet " + std::to_string(index) +
                     (out.dropped() ? ": dropped" : ": delivered") +
                     ", differs from the original-mode output");
  }
  ++failed;
  return false;
}

void Bench::conserve(const runtime::RunStats& stats, std::uint64_t offered,
                     std::uint64_t delivered, const char* phase) {
  attempted += offered;
  const std::uint64_t accounted =
      delivered + stats.drops + stats.overload.faulted;
  if (stats.packets != accounted || stats.packets != offered) {
    const std::uint64_t missing =
        offered > stats.packets ? offered - stats.packets : 0;
    failed += missing;
    errors.push_back(std::string(phase) + ": packets=" +
                     std::to_string(stats.packets) + " offered=" +
                     std::to_string(offered) + " delivered+drops+faulted=" +
                     std::to_string(accounted));
    if (missing == 0) ++failed;
  }
}

void set_up(Bench& bench) {
  auto chain = plan::build_chain(bench.spec);
  bench.arena = std::make_unique<PacketArena>(
      generate(bench.def, bench.options.seed, bench.options.scale));
  // Warm-up: one pass over the head of the trace, so that lazy set-up (the
  // cycle-clock calibration, allocator pools, code pages) is paid here.
  const std::size_t warm = std::min<std::size_t>(bench.arena->size(), 16384);
  const std::vector<net::Packet> head = bench.arena->packets(0, warm);
  if (bench.def.shape == Shape::kSharded) {
    runtime::ShardedRuntime rt(*chain, kShardedWorkers, speedybox_config());
    rt.run_packets(head);
  } else {
    runtime::ChainRunner runner(*chain, speedybox_config());
    runner.run_packets(head);
  }
}

void build_reference(Bench& bench) {
  const PacketArena& arena = *bench.arena;
  // A sharded deployment is one chain replica per shard, each seeing only
  // its own flows (NAT ports, for one, are allocated per replica), so its
  // oracle is one original-mode chain per shard, fed the packets the
  // dispatcher's hash steers there, in input order.
  const std::size_t shards =
      bench.def.shape == Shape::kSharded ? kShardedWorkers : 1;
  std::vector<std::vector<std::size_t>> indices(shards);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    std::size_t shard = 0;
    const net::Packet packet = arena.packet(i);
    if (shards > 1) {
      if (const auto parsed = net::parse_packet(packet)) {
        shard = speedybox::util::shard_index(
            net::extract_five_tuple(packet, *parsed).symmetric_hash(), shards);
      }
    }
    indices[shard].push_back(i);
  }
  runtime::RunConfig config = speedybox_config();
  config.speedybox = false;
  bench.reference.assign(arena.size(), 0);
  std::vector<net::Packet> input;
  std::vector<net::Packet> outputs;
  for (const std::vector<std::size_t>& mine : indices) {
    auto chain = plan::build_chain(bench.spec);
    runtime::ChainRunner runner(*chain, config);
    for (std::size_t begin = 0; begin < mine.size(); begin += kChunk) {
      const std::size_t end = std::min(mine.size(), begin + kChunk);
      input.clear();
      for (std::size_t k = begin; k < end; ++k) {
        input.push_back(arena.packet(mine[k]));
      }
      runner.run_packets(input, &outputs);
      for (std::size_t k = 0; k < outputs.size(); ++k) {
        bench.reference[mine[begin + k]] = output_digest(outputs[k]);
      }
    }
  }
}

ClosedLoop closed_loop(Bench& bench, double budget_s) {
  ClosedLoop loop;
  const std::int64_t start = now_ns();
  do {
    if (bench.def.shape == Shape::kSharded) {
      closed_pass_sharded(bench, loop);
    } else {
      closed_pass_runner(bench, loop);
    }
    loop.packets += bench.arena->size();
    ++loop.passes;
  } while (seconds_since(start) < budget_s);
  return loop;
}

OpenLoop open_loop(Bench& bench, double budget_s) {
  OpenLoop out;
  // Reserve for the whole phase up front: growing a multi-megabyte sample
  // vector mid-pass would stall the generator, and the stall would show up
  // as the program's latency.
  const std::size_t n = bench.arena->size();
  const std::size_t expected =
      n + static_cast<std::size_t>(budget_s * bench.def.offered_mpps *
                                   1.5e6);
  out.latency_us.reserve(expected + n);
  out.lag_us.reserve(expected + n);
  const std::int64_t start = now_ns();
  do {
    if (bench.def.shape == Shape::kSharded) {
      open_pass_sharded(bench, out);
    } else {
      open_pass_runner(bench, out);
    }
    out.packets += bench.arena->size();
    ++out.passes;
  } while (seconds_since(start) < budget_s);
  return out;
}

ClosedLoop batch_loop(Bench& bench, double budget_s, Traced* traced) {
  ClosedLoop bare;
  ClosedLoop& loop = traced != nullptr ? traced->loop : bare;
  const std::int64_t start = now_ns();
  do {
    if (bench.def.shape == Shape::kSharded) {
      traced_pass_sharded(bench, *traced);
    } else {
      batch_pass_runner(bench, loop, traced);
    }
    loop.packets += bench.arena->size();
    ++loop.passes;
  } while (seconds_since(start) < budget_s);
  return loop;
}

}  // namespace wallbench
