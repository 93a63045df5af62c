// Property: every BENCH_*.json emitter output validates against the shared
// schema (bench/bench_schema.hpp) — required keys, finite numbers, and the
// conservation identity offered == admitted + shed — across executor
// shapes, overload policies and workloads. Plus the gate itself: an
// unmodified document passes against itself, an injected regression fails.
#include "bench_schema.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"

namespace speedybox::bench {
namespace {

ChainFactory small_chain() {
  return [] {
    auto chain = std::make_unique<runtime::ServiceChain>("schema_chain");
    chain->emplace_nf<nf::MazuNat>();
    chain->emplace_nf<nf::Monitor>();
    return chain;
  };
}

trace::Workload small_workload() {
  return trace::make_uniform_workload(12, 8, 64);
}

/// Assemble a document exactly the way BenchJson::write does, but in
/// memory: the property under test is that the emitter pipeline
/// (config_row -> rows -> document) satisfies validate_bench_json.
telemetry::Json make_document(std::vector<telemetry::Json> rows) {
  using telemetry::Json;
  Json root = Json::object();
  root.set("bench", Json::string("property"));
  root.set("schema_version", Json::integer(kBenchSchemaVersion));
  root.set("cpu_ghz", Json::number(2.5));
  root.set("environment", environment_json(2, 32));
  root.set("params", Json::object());
  Json configs = Json::array();
  for (Json& row : rows) configs.push(std::move(row));
  root.set("configs", std::move(configs));
  return root;
}

void expect_valid(const telemetry::Json& doc) {
  const std::vector<std::string> issues = validate_bench_json(doc);
  EXPECT_TRUE(issues.empty());
  for (const std::string& issue : issues) ADD_FAILURE() << issue;
}

TEST(BenchSchemaProperty, RunnerRowsValidateBothModes) {
  const trace::Workload workload = small_workload();
  std::vector<telemetry::Json> rows;
  for (const bool speedybox : {false, true}) {
    const ConfigResult result =
        run_config(small_chain(), platform::PlatformKind::kBess, speedybox,
                   workload);
    rows.push_back(config_row(speedybox ? "speedybox" : "original", result));
  }
  expect_valid(make_document(std::move(rows)));
}

TEST(BenchSchemaProperty, OverloadRowsConserveAcrossPolicies) {
  const trace::Workload workload = small_workload();
  std::vector<telemetry::Json> rows;
  for (const runtime::DropPolicy policy :
       {runtime::DropPolicy::kTailDrop, runtime::DropPolicy::kPerFlowFair,
        runtime::DropPolicy::kSloEarlyDrop}) {
    runtime::OverloadConfig overload;
    overload.enabled = true;
    overload.offered_load = 2.0;
    overload.queue_capacity = 64;
    overload.policy = policy;
    const ConfigResult result =
        run_config(small_chain(), platform::PlatformKind::kBess, true,
                   workload, net::kDefaultBatchSize, overload);
    // The emitter must have included the overload split for this row, or
    // the conservation property is vacuous.
    ASSERT_GT(result.stats.overload.offered, 0u);
    rows.push_back(config_row("overload", result));
  }
  expect_valid(make_document(std::move(rows)));
}

TEST(BenchSchemaProperty, EveryExecutorShapeEmitsValidRows) {
  const trace::Workload workload = small_workload();
  std::vector<net::Packet> packets;
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  std::vector<telemetry::Json> rows;
  {
    auto chain = small_chain()();
    runtime::RunConfig config{platform::PlatformKind::kBess, true};
    config.cycle_model = true;  // the sharded row reports modeled cycles
    runtime::ShardedRuntime sharded{*chain, 2, config};
    sharded.run(packets, nullptr);
    rows.push_back(config_row(
        "sharded", collect_result(sharded, platform::PlatformKind::kBess)));
  }
  for (const bool speedybox : {true, false}) {
    auto chain = small_chain()();
    runtime::SpeedyBoxPipeline pipeline{
        *chain, {platform::PlatformKind::kOnvm, speedybox}};
    pipeline.run(packets, nullptr);
    rows.push_back(config_row(
        speedybox ? "pipeline/speedybox" : "pipeline/original",
        collect_result(pipeline, platform::PlatformKind::kOnvm)));
  }
  expect_valid(make_document(std::move(rows)));
}

TEST(BenchSchemaProperty, ScenarioWorkloadRowsValidate) {
  std::vector<telemetry::Json> rows;
  for (const std::string& name : trace::named_scenarios()) {
    trace::ScenarioScale scale;
    scale.flows = 24;
    const auto workload = trace::make_named_scenario(name, scale);
    ASSERT_TRUE(workload.has_value()) << name;
    const ConfigResult result = run_config(
        small_chain(), platform::PlatformKind::kBess, true, *workload);
    telemetry::Json row = config_row(name, result);
    row.set("workload", telemetry::Json::string(name));
    rows.push_back(std::move(row));
  }
  expect_valid(make_document(std::move(rows)));
}

// -- Schema violations must be caught ---------------------------------------

TEST(BenchSchemaProperty, MissingTopLevelKeysAreReported) {
  using telemetry::Json;
  const Json doc = Json::object();
  const std::vector<std::string> issues = validate_bench_json(doc);
  EXPECT_GE(issues.size(), 5u);  // bench, version, cpu, env, params, configs
}

TEST(BenchSchemaProperty, NonFiniteNumberIsReported) {
  telemetry::Json row = telemetry::Json::object();
  row.set("config", telemetry::Json::string("bad"));
  row.set("rate_mpps",
          telemetry::Json::number(std::numeric_limits<double>::infinity()));
  const auto issues =
      validate_bench_json(make_document({std::move(row)}));
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("non-finite"), std::string::npos);
}

TEST(BenchSchemaProperty, ConservationViolationIsReported) {
  telemetry::Json row = telemetry::Json::object();
  row.set("config", telemetry::Json::string("bad"));
  row.set("offered", telemetry::Json::integer(100));
  row.set("admitted", telemetry::Json::integer(90));
  row.set("shed", telemetry::Json::integer(5));  // 90 + 5 != 100
  const auto issues =
      validate_bench_json(make_document({std::move(row)}));
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("conservation"), std::string::npos);
}

TEST(BenchSchemaProperty, RowWithoutConfigLabelIsReported) {
  telemetry::Json row = telemetry::Json::object();
  row.set("rate_mpps", telemetry::Json::number(1.0));
  const auto issues =
      validate_bench_json(make_document({std::move(row)}));
  EXPECT_FALSE(issues.empty());
}

// -- Gate behavior ----------------------------------------------------------

telemetry::Json gated_row(double rel_rate, double rel_p99) {
  telemetry::Json row = telemetry::Json::object();
  row.set("config", telemetry::Json::string("runner/speedybox"));
  row.set("chain", telemetry::Json::string("chain1"));
  row.set("workload", telemetry::Json::string("elephant-mice"));
  row.set("gated", telemetry::Json::boolean(true));
  row.set("rel_rate", telemetry::Json::number(rel_rate));
  row.set("rel_p99", telemetry::Json::number(rel_p99));
  return row;
}

TEST(BenchGateProperty, DocumentPassesAgainstItself) {
  const telemetry::Json doc = make_document({gated_row(1.8, 0.6)});
  const GateReport report = gate_compare(doc, doc, GateConfig{});
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.rows_compared, 1);
  EXPECT_EQ(report.rows_missing, 0);
}

TEST(BenchGateProperty, TwentyPercentRateLossFailsTenPercentGate) {
  const telemetry::Json baseline = make_document({gated_row(2.0, 0.6)});
  const telemetry::Json slowed = make_document({gated_row(1.6, 0.6)});
  const GateReport report = gate_compare(baseline, slowed, GateConfig{});
  EXPECT_FALSE(report.pass());
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().metric, "rel_rate");
}

TEST(BenchGateProperty, WithinToleranceJitterPasses) {
  const telemetry::Json baseline = make_document({gated_row(2.0, 0.6)});
  const telemetry::Json jittered = make_document({gated_row(1.85, 0.64)});
  EXPECT_TRUE(gate_compare(baseline, jittered, GateConfig{}).pass());
}

TEST(BenchGateProperty, P99GrowthBeyondToleranceFails) {
  const telemetry::Json baseline = make_document({gated_row(2.0, 0.6)});
  const telemetry::Json slower = make_document({gated_row(2.0, 0.9)});
  const GateReport report = gate_compare(baseline, slower, GateConfig{});
  EXPECT_FALSE(report.pass());
}

TEST(BenchGateProperty, PerRowToleranceOverridesDefault) {
  telemetry::Json loose = gated_row(2.0, 0.6);
  loose.set("tolerance_rel_rate", telemetry::Json::number(0.5));
  const telemetry::Json baseline = make_document({std::move(loose)});
  const telemetry::Json slowed = make_document({gated_row(1.2, 0.6)});
  // 40% loss passes the per-row 50% tolerance even though the default
  // gate is 10%.
  EXPECT_TRUE(gate_compare(baseline, slowed, GateConfig{}).pass());
}

TEST(BenchGateProperty, UngatedRowsAreIgnored) {
  telemetry::Json informational = gated_row(2.0, 0.6);
  informational.set("gated", telemetry::Json::boolean(false));
  const telemetry::Json baseline = make_document({std::move(informational)});
  const telemetry::Json slowed = make_document({gated_row(0.1, 9.9)});
  const GateReport report = gate_compare(baseline, slowed, GateConfig{});
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.rows_compared, 0);
}

TEST(BenchGateProperty, UnstableTailSkipsP99WithoutLatencyFallback) {
  // A row that measured its own tail as too noisy drops rel_p99 and sets
  // rel_p99_unstable; the gate must not fall back to absolute latency for
  // that row, so a wild p99 swing in the candidate cannot flake the gate.
  telemetry::Json baseline_row = telemetry::Json::object();
  telemetry::Json candidate_row = telemetry::Json::object();
  for (telemetry::Json* row : {&baseline_row, &candidate_row}) {
    row->set("config", telemetry::Json::string("runner/speedybox"));
    row->set("chain", telemetry::Json::string("chain2"));
    row->set("workload", telemetry::Json::string("syn-flood"));
    row->set("gated", telemetry::Json::boolean(true));
    row->set("rel_rate", telemetry::Json::number(2.0));
    row->set("rel_p99_unstable", telemetry::Json::boolean(true));
  }
  baseline_row.set("latency_us_p99", telemetry::Json::number(5.0));
  candidate_row.set("latency_us_p99", telemetry::Json::number(40.0));
  const GateReport report =
      gate_compare(make_document({std::move(baseline_row)}),
                   make_document({std::move(candidate_row)}), GateConfig{});
  EXPECT_TRUE(report.pass());
  for (const GateFinding& finding : report.findings) {
    EXPECT_EQ(finding.metric, "rel_rate");
  }
}

TEST(BenchGateProperty, MissingRowFailsCoverage) {
  const telemetry::Json baseline = make_document({gated_row(2.0, 0.6)});
  telemetry::Json other = gated_row(2.0, 0.6);
  other.set("workload", telemetry::Json::string("sync-burst"));
  const telemetry::Json candidate = make_document({std::move(other)});
  const GateReport strict = gate_compare(baseline, candidate, GateConfig{});
  EXPECT_FALSE(strict.pass());
  EXPECT_EQ(strict.rows_missing, 1);
  GateConfig lenient;
  lenient.require_all_rows = false;
  EXPECT_TRUE(gate_compare(baseline, candidate, lenient).pass());
}

TEST(BenchGateProperty, InvalidDocumentFailsTheGate) {
  const telemetry::Json good = make_document({gated_row(2.0, 0.6)});
  const telemetry::Json bad = telemetry::Json::object();
  EXPECT_FALSE(gate_compare(good, bad, GateConfig{}).pass());
  EXPECT_FALSE(gate_compare(bad, good, GateConfig{}).pass());
}

// -- Committed baselines -----------------------------------------------------

TEST(BenchBaselines, CommittedBaselinesParseAndValidate) {
#ifndef SPEEDYBOX_BASELINE_DIR
  GTEST_SKIP() << "baseline dir not configured";
#else
  // Every baseline the CI gate compares against.
  const char* names[] = {"BENCH_matrix.json", "BENCH_ingest.json"};
  int found = 0;
  for (const char* name : names) {
    const std::string path =
        std::string(SPEEDYBOX_BASELINE_DIR) + "/" + name;
    std::ifstream in{path, std::ios::binary};
    if (!in) continue;
    ++found;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto doc = telemetry::Json::parse(buffer.str());
    ASSERT_TRUE(doc.has_value()) << path << " is not valid JSON";
    expect_valid(*doc);
    // And the gate's reflexive property holds on the real artifact.
    EXPECT_TRUE(gate_compare(*doc, *doc, GateConfig{}).pass()) << path;
  }
  if (found == 0) GTEST_SKIP() << "no committed baselines";
#endif
}

}  // namespace
}  // namespace speedybox::bench
