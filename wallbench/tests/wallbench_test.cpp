// The benchmark's own tests: the percentile and open-loop rules, output
// digests, the span ledger, and a self-check that a corrupted output packet
// makes the benchmark fail.
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ledger.hpp"
#include "net/packet_builder.hpp"
#include "runtime/runner.hpp"
#include "timed_nf.hpp"
#include "workloads.hpp"

namespace wallbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(Percentile, NearestRank) {
  std::vector<double> values = one_to(100);
  EXPECT_EQ(percentile(values, 50), 50);
  EXPECT_EQ(percentile(values, 99), 99);
  EXPECT_EQ(percentile(values, 100), 100);
  std::vector<double> thousand = one_to(1000);
  EXPECT_EQ(percentile(thousand, 99), 990);  // 0.99 * 1000 is not 991
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
}

TEST(Percentile, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(99), 50);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(2'500'000), 99.999);
  for (const std::uint64_t n : {100u, 1000u, 12345u, 2'500'000u}) {
    EXPECT_GE(samples_beyond(n, highest_supported_percentile(n)), 10u) << n;
  }
}

TEST(Percentile, ReportCarriesSampleCounts) {
  const PercentileReport r = report(one_to(1000));
  EXPECT_EQ(r.samples, 1000u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.p50, 500);
  EXPECT_EQ(r.p99, 990);
  EXPECT_EQ(r.tail_p, 99);
  EXPECT_EQ(r.tail_beyond, 10u);
}

TEST(OpenLoop, FailedPacketMissesEveryLimit) {
  EXPECT_EQ(latency_us(0, 5'000, /*failed=*/true), kFailedLatency);
  std::vector<double> values(1000, 1.0);
  for (int i = 0; i < 11; ++i) values[i] = latency_us(0, 1'000, true);
  const PercentileReport r = report(values);
  EXPECT_EQ(r.failed, 11u);
  EXPECT_EQ(r.p50, 1.0);
  EXPECT_EQ(r.p99, kFailedLatency);  // 11 failures > 1% of samples
}

TEST(OpenLoop, LatencyRunsFromDueTimeNotSendTime) {
  // 1 Mpps from t=0: packet 10 is due at 10 µs. The generator stalled and
  // sent it at 50 µs; it completed at 52 µs. Its latency is 42 µs, not 2.
  const OpenLoopSchedule schedule(1e6, 0);
  EXPECT_EQ(schedule.due_ns(0), 0);
  EXPECT_EQ(schedule.due_ns(10), 10'000);
  EXPECT_DOUBLE_EQ(latency_us(schedule.due_ns(10), 52'000, false), 42.0);
  // Due times never move with the system: packet 11 is still due at 11 µs.
  EXPECT_EQ(schedule.due_ns(11), 11'000);
}

TEST(OpenLoop, GeneratorLagExcludesSystemQueueing) {
  // Due at 10 µs, the previous call returned (and bookkeeping finished) at
  // 30 µs, picked up at 31 µs: 1 µs of generator lag; the 20 µs the
  // previous call held the packet is queueing, charged to latency.
  EXPECT_DOUBLE_EQ(generator_lag_us(31'000, 10'000, 30'000), 1.0);
  // Idle system: ready long before the due time, picked up 0.5 µs late.
  EXPECT_DOUBLE_EQ(generator_lag_us(10'500, 10'000, 2'000), 0.5);
  EXPECT_DOUBLE_EQ(generator_lag_us(10'000, 10'000, 2'000), 0.0);
}

TEST(Digest, ComparesBytesOfDeliveredAndVerdictOfDropped) {
  static const std::uint8_t payload[] = {1, 2, 3, 4, 5, 6};
  speedybox::net::PacketSpec spec;
  spec.payload = payload;
  net::Packet a = speedybox::net::build_packet(spec);
  net::Packet b = a;
  EXPECT_EQ(output_digest(a), output_digest(b));
  b.bytes()[b.size() - 1] ^= 0x01;
  EXPECT_NE(output_digest(a), output_digest(b));
  a.mark_dropped();
  b.mark_dropped();
  EXPECT_EQ(output_digest(a), output_digest(b));
  EXPECT_NE(output_digest(a), output_digest(speedybox::net::build_packet(spec)));
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  const std::uint32_t run = log.intern("run");
  const std::uint32_t batch = log.intern("batch");
  const std::uint32_t nf = log.intern("nf.nat");
  const std::uint32_t root = log.open(run, Span::kNoParent, 0, 0);
  const std::uint32_t b0 = log.open(batch, root, 0, 0);
  log.child(nf, 10, 30);
  log.child(nf, 40, 50);
  log.close(b0, 100);
  const std::uint32_t b1 = log.open(batch, root, 1, 100);
  log.close(b1, 150);
  log.close(root, 160);
  EXPECT_EQ(log.total_ns(batch), 150);
  EXPECT_EQ(log.total_ns(nf), 30);
  EXPECT_EQ(log.self_ns(batch), 120);
  EXPECT_EQ(log.self_ns(batch) + log.total_ns(nf), log.total_ns(batch));
  EXPECT_EQ(log.self_ns(run), 10);
  EXPECT_EQ(log.spans()[2].request, 0u);  // children share the batch's id
  EXPECT_EQ(log.intern("batch"), batch);
}

TEST(SpanLog, BoundedCapacity) {
  SpanLog log(2);
  const std::uint32_t name = log.intern("batch");
  log.open(name, Span::kNoParent, 0, 0);
  log.child(name, 1, 2);
  log.child(name, 2, 3);
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
}

std::vector<std::uint64_t> run_digests(speedybox::runtime::ServiceChain& chain,
                                       const PacketArena& arena) {
  speedybox::runtime::ChainRunner runner(chain, {});
  std::vector<net::Packet> outputs;
  runner.run_packets(arena.packets(0, arena.size()), &outputs);
  std::vector<std::uint64_t> digests;
  for (const net::Packet& packet : outputs) {
    digests.push_back(output_digest(packet));
  }
  return digests;
}

TEST(TimedNf, TransparentAndCountsSlowPathCalls) {
  const WorkloadDef& def = *find_workload("chain2-ids");
  const PacketArena arena(generate(def, 5, 0.02));
  auto plain = speedybox::plan::build_chain(chain_spec(def));
  SpanLog spans;
  auto timed = build_timed_chain(chain_spec(def), &spans);
  spans.open(spans.intern("batch"), Span::kNoParent, 0, 0);
  EXPECT_EQ(run_digests(*timed, arena), run_digests(*plain, arena));
  // Only recording packets traverse the NFs: one call per new flow at the
  // head of the chain, and one nf span per call.
  const auto& head = dynamic_cast<const TimedNf&>(timed->nf(0));
  EXPECT_EQ(head.kind(), "ipfilter");
  EXPECT_EQ(head.calls(), timed->classifier().initial_count());
  std::uint64_t calls = 0;
  for (std::size_t i = 0; i < timed->size(); ++i) {
    calls += dynamic_cast<const TimedNf&>(timed->nf(i)).calls();
  }
  EXPECT_EQ(spans.spans().size(), calls + 1);
}

int run_benchmark(const std::string& extra) {
  const std::string command =
      std::string(WALLBENCH_BINARY) +
      " --workload chain1-fastpath --seed 3 --seconds 0.2 --trace 0"
      " --scale 0.02 " +
      extra + " > /dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SelfCheck, CorruptedOutputFailsTheBenchmark) {
  EXPECT_EQ(run_benchmark(""), 0);
  EXPECT_EQ(run_benchmark("--corrupt-output"), 1);
}

}  // namespace
}  // namespace wallbench
