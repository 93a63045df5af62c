#include "runtime/plan.hpp"

#include "core/parallel_schedule.hpp"
#include "runtime/overload.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/speedybox_pipeline.hpp"

namespace speedybox::plan {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw PlanError("deployment plan: " + message);
}

std::size_t size_field(const telemetry::Json& value, const char* key,
                       std::size_t lo = 1) {
  if (!value.is_integer() || value.as_integer() < lo) {
    fail(std::string("field '") + key + "' must be an integer >= " +
         std::to_string(lo));
  }
  return static_cast<std::size_t>(value.as_integer());
}

double number_field(const telemetry::Json& value, const char* key) {
  if (!value.is_number()) {
    fail(std::string("field '") + key + "' must be a number");
  }
  return value.as_number();
}

const std::string& string_field(const telemetry::Json& value,
                                const char* key) {
  if (!value.is_string()) {
    fail(std::string("field '") + key + "' must be a string");
  }
  return value.as_string();
}

telemetry::Json overload_to_json(const runtime::OverloadConfig& overload) {
  using telemetry::Json;
  Json json = Json::object();
  json.set("offered_load", Json::number(overload.offered_load));
  json.set("policy",
           Json::string(std::string(
               runtime::drop_policy_name(overload.policy))));
  json.set("queue_capacity", Json::integer(overload.queue_capacity));
  return json;
}

runtime::OverloadConfig overload_from_json(const telemetry::Json& json) {
  runtime::OverloadConfig overload;
  overload.enabled = true;
  for (const auto& [key, value] : json.members()) {
    if (key == "offered_load") {
      overload.offered_load = number_field(value, "overload.offered_load");
      if (overload.offered_load <= 0.0) {
        fail("field 'overload.offered_load' must be > 0");
      }
    } else if (key == "policy") {
      const auto policy =
          runtime::parse_drop_policy(string_field(value, "overload.policy"));
      if (!policy) {
        fail("field 'overload.policy' must be tail-drop, per-flow-fair or "
             "slo-early-drop");
      }
      overload.policy = *policy;
    } else if (key == "queue_capacity") {
      overload.queue_capacity = size_field(value, "overload.queue_capacity");
    } else {
      fail("unknown field 'overload." + key + "'");
    }
  }
  return overload;
}

}  // namespace

const char* executor_kind_name(ExecutorKind kind) noexcept {
  switch (kind) {
    case ExecutorKind::kRunner:
      return "runner";
    case ExecutorKind::kSharded:
      return "sharded";
    case ExecutorKind::kPipeline:
      return "pipeline";
  }
  return "runner";
}

std::optional<ExecutorKind> parse_executor_kind(
    std::string_view name) noexcept {
  if (name == "runner") return ExecutorKind::kRunner;
  if (name == "sharded") return ExecutorKind::kSharded;
  if (name == "pipeline") return ExecutorKind::kPipeline;
  return std::nullopt;
}

ChainSpec ChainSpec::parse(std::string_view spec, std::string name) {
  ChainSpec chain;
  chain.name = std::move(name);
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string_view token = spec.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    if (!token.empty()) chain.nfs.push_back(nf::NfSpec::parse(token));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (chain.nfs.empty()) {
    throw PlanError("chain spec '" + std::string(spec) +
                    "' contains no NFs");
  }
  return chain;
}

std::string ChainSpec::to_string() const {
  std::string out;
  for (const nf::NfSpec& spec : nfs) {
    if (!out.empty()) out += ',';
    out += spec.to_string();
  }
  return out;
}

telemetry::Json ChainSpec::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  json.set("name", Json::string(name));
  Json tokens = Json::array();
  for (const nf::NfSpec& spec : nfs) {
    tokens.push(Json::string(spec.to_string()));
  }
  json.set("nfs", std::move(tokens));
  return json;
}

ChainSpec ChainSpec::from_json(const telemetry::Json& json) {
  if (!json.is_object()) fail("field 'chain' must be an object");
  ChainSpec chain;
  bool saw_nfs = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "name") {
      chain.name = string_field(value, "chain.name");
    } else if (key == "nfs") {
      if (!value.is_array() || value.elements().empty()) {
        fail("field 'chain.nfs' must be a non-empty array of NF tokens");
      }
      for (const telemetry::Json& token : value.elements()) {
        chain.nfs.push_back(
            nf::NfSpec::parse(string_field(token, "chain.nfs[]")));
      }
      saw_nfs = true;
    } else {
      fail("unknown field 'chain." + key + "'");
    }
  }
  if (!saw_nfs) fail("missing field 'chain.nfs'");
  return chain;
}

void ChainSpec::validate() const {
  if (nfs.empty()) throw PlanError("chain '" + name + "' has no NFs");
  const nf::Registry& registry = nf::Registry::instance();
  // payload_access runs the same kind/option checks make() does, without
  // paying NF construction.
  for (const nf::NfSpec& spec : nfs) registry.payload_access(spec);
}

telemetry::Json DeploymentPlan::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  json.set("version", Json::integer(1));
  json.set("chain", chain.to_json());
  json.set("executor", Json::string(executor_kind_name(executor)));
  json.set("mode", Json::string(speedybox ? "speedybox" : "original"));
  json.set("platform", Json::string(
                           platform == platform::PlatformKind::kBess
                               ? "bess"
                               : "onvm"));
  json.set("batch_size", Json::integer(batch_size));
  if (cycle_model) json.set("cycle_model", Json::boolean(true));
  if (shards > 0) json.set("shards", Json::integer(shards));
  json.set("ring_capacity", Json::integer(ring_capacity));
  if (!segments.empty()) {
    Json list = Json::array();
    for (const SegmentSpec& segment : segments) {
      Json entry = Json::object();
      entry.set("nfs", Json::integer(segment.nf_count));
      entry.set("parallel", Json::boolean(segment.parallel));
      list.push(std::move(entry));
    }
    json.set("segments", std::move(list));
  }
  if (overload.enabled) json.set("overload", overload_to_json(overload));
  if (fault.has_value()) {
    json.set("fault",
             Json::string(fault->first + ":" + fault->second.to_string()));
  }
  if (predicted_cycles_per_packet > 0.0) {
    json.set("predicted_cycles_per_packet",
             Json::number(predicted_cycles_per_packet));
  }
  if (target_rate_mpps > 0.0) {
    json.set("target_rate_mpps", Json::number(target_rate_mpps));
  }
  return json;
}

DeploymentPlan DeploymentPlan::from_json(const telemetry::Json& json) {
  if (!json.is_object()) fail("document must be a JSON object");
  DeploymentPlan deployment;
  bool saw_chain = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "version") {
      if (size_field(value, "version") != 1) {
        fail("unsupported plan version " +
             std::to_string(value.as_integer()));
      }
    } else if (key == "chain") {
      deployment.chain = ChainSpec::from_json(value);
      saw_chain = true;
    } else if (key == "executor") {
      const auto kind =
          parse_executor_kind(string_field(value, "executor"));
      if (!kind) {
        fail("field 'executor' must be runner, sharded or pipeline");
      }
      deployment.executor = *kind;
    } else if (key == "mode") {
      const std::string& mode = string_field(value, "mode");
      if (mode != "speedybox" && mode != "original") {
        fail("field 'mode' must be speedybox or original");
      }
      deployment.speedybox = mode == "speedybox";
    } else if (key == "platform") {
      const std::string& name = string_field(value, "platform");
      if (name != "bess" && name != "onvm") {
        fail("field 'platform' must be bess or onvm");
      }
      deployment.platform = name == "bess" ? platform::PlatformKind::kBess
                                           : platform::PlatformKind::kOnvm;
    } else if (key == "batch_size") {
      deployment.batch_size = size_field(value, "batch_size");
    } else if (key == "cycle_model") {
      if (!value.is_bool()) fail("field 'cycle_model' must be a boolean");
      deployment.cycle_model = value.as_bool();
    } else if (key == "shards") {
      deployment.shards = size_field(value, "shards");
    } else if (key == "ring_capacity") {
      deployment.ring_capacity = size_field(value, "ring_capacity");
    } else if (key == "segments") {
      if (!value.is_array()) fail("field 'segments' must be an array");
      for (const telemetry::Json& entry : value.elements()) {
        if (!entry.is_object()) {
          fail("field 'segments[]' must hold objects");
        }
        SegmentSpec segment;
        bool saw_count = false;
        for (const auto& [skey, svalue] : entry.members()) {
          if (skey == "nfs") {
            segment.nf_count = size_field(svalue, "segments[].nfs");
            saw_count = true;
          } else if (skey == "parallel") {
            if (!svalue.is_bool()) {
              fail("field 'segments[].parallel' must be a boolean");
            }
            segment.parallel = svalue.as_bool();
          } else {
            fail("unknown field 'segments[]." + skey + "'");
          }
        }
        if (!saw_count) fail("missing field 'segments[].nfs'");
        deployment.segments.push_back(segment);
      }
    } else if (key == "overload") {
      if (!value.is_object()) fail("field 'overload' must be an object");
      deployment.overload = overload_from_json(value);
    } else if (key == "fault") {
      deployment.fault =
          runtime::parse_fault_spec(string_field(value, "fault"));
      if (!deployment.fault || !deployment.fault->second.any()) {
        fail("field 'fault' is malformed (want \"<nf>:fail-every=N,...\" "
             "with at least one action)");
      }
    } else if (key == "predicted_cycles_per_packet") {
      deployment.predicted_cycles_per_packet =
          number_field(value, "predicted_cycles_per_packet");
    } else if (key == "target_rate_mpps") {
      deployment.target_rate_mpps =
          number_field(value, "target_rate_mpps");
    } else {
      fail("unknown field '" + key + "'");
    }
  }
  if (!saw_chain) fail("missing field 'chain'");
  return deployment;
}

DeploymentPlan DeploymentPlan::parse(std::string_view text) {
  const auto json = telemetry::Json::parse(text);
  if (!json) fail("not valid JSON");
  return from_json(*json);
}

std::vector<std::size_t> DeploymentPlan::segment_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(segments.size());
  for (const SegmentSpec& segment : segments) {
    sizes.push_back(segment.nf_count);
  }
  return sizes;
}

void DeploymentPlan::validate() const {
  chain.validate();
  if (batch_size == 0) fail("batch_size must be > 0");
  if (ring_capacity == 0) fail("ring_capacity must be > 0");
  if (executor == ExecutorKind::kSharded && shards == 0) {
    fail("the sharded executor needs shards > 0");
  }
  if (executor != ExecutorKind::kSharded && shards > 0) {
    fail("shards only applies to the sharded executor");
  }
  if (!segments.empty()) {
    const nf::Registry& registry = nf::Registry::instance();
    std::size_t covered = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const SegmentSpec& segment = segments[s];
      if (segment.nf_count == 0) {
        fail("segment " + std::to_string(s) + " is empty");
      }
      if (covered + segment.nf_count > chain.nfs.size()) break;  // -> sum check
      if (segment.parallel && segment.nf_count > 1) {
        // Table I: every ordered pair inside the segment must be
        // parallelizable — an earlier WRITE forbids any later touch.
        for (std::size_t i = covered; i < covered + segment.nf_count; ++i) {
          for (std::size_t j = i + 1; j < covered + segment.nf_count; ++j) {
            const auto a = registry.payload_access(chain.nfs[i]);
            const auto b = registry.payload_access(chain.nfs[j]);
            if (!core::parallelizable(a, b)) {
              fail("segment " + std::to_string(s) +
                   " is marked parallel but '" + chain.nfs[i].to_string() +
                   "' (" + std::string(core::payload_access_name(a)) +
                   ") and '" + chain.nfs[j].to_string() + "' (" +
                   std::string(core::payload_access_name(b)) +
                   ") violate Table I");
            }
          }
        }
      }
      covered += segment.nf_count;
    }
    if (covered != chain.nfs.size()) {
      fail("segments cover " + std::to_string(covered) + " NFs but chain '" +
           chain.name + "' has " + std::to_string(chain.nfs.size()));
    }
  }
  if (fault.has_value()) {
    bool found = false;
    for (const nf::NfSpec& spec : chain.nfs) {
      if (spec.kind == fault->first) found = true;
    }
    if (!found) {
      fail("fault target '" + fault->first + "' is not in the chain");
    }
  }
}

std::unique_ptr<runtime::ServiceChain> build_chain(
    const ChainSpec& spec,
    const std::optional<std::pair<std::string, runtime::FaultSpec>>& fault) {
  spec.validate();
  const nf::Registry& registry = nf::Registry::instance();
  auto chain = std::make_unique<runtime::ServiceChain>(spec.name);
  int index = 0;
  for (const nf::NfSpec& nf_spec : spec.nfs) {
    const std::string label =
        nf_spec.kind + "-" + std::to_string(index++);
    std::unique_ptr<nf::NetworkFunction> nf = registry.make(nf_spec, label);
    // The fault spec targets the chain-spec kind; every occurrence of that
    // NF gets its own injector (independent schedules).
    if (fault.has_value() && fault->first == nf_spec.kind) {
      nf = std::make_unique<runtime::FaultInjector>(std::move(nf),
                                                    fault->second);
    }
    chain->adopt_nf(std::move(nf));
  }
  return chain;
}

runtime::RunConfig run_config(const DeploymentPlan& plan) {
  runtime::RunConfig config{plan.platform, plan.speedybox};
  config.batch_size = plan.batch_size;
  config.overload = plan.overload;
  config.cycle_model = plan.cycle_model;
  return config;
}

BuiltDeployment build(const DeploymentPlan& plan) {
  plan.validate();
  BuiltDeployment built;
  built.chain = build_chain(plan.chain, plan.fault);
  const runtime::RunConfig config = run_config(plan);
  switch (plan.executor) {
    case ExecutorKind::kRunner:
      built.executor =
          std::make_unique<runtime::ChainRunner>(*built.chain, config);
      break;
    case ExecutorKind::kSharded:
      built.executor = std::make_unique<runtime::ShardedRuntime>(
          *built.chain, plan.shards, config, plan.ring_capacity);
      break;
    case ExecutorKind::kPipeline:
      built.executor = std::make_unique<runtime::SpeedyBoxPipeline>(
          *built.chain, config, plan.ring_capacity, plan.segment_sizes());
      break;
  }
  return built;
}

ChainSpec vii_c_chain1() {
  return ChainSpec::parse(
      "nat,"
      "maglev:backends=5:table=1021:subnet=10.2.0.10:port=8000:port-stride=1,"
      "monitor,ipfilter",
      "chain1_gateway");
}

ChainSpec vii_c_chain2() {
  return ChainSpec::parse("ipfilter:drop-dst-prefix=10.1.3.0/24,snort,monitor",
                          "chain2_ids");
}

ChainSpec vii_c_chain1_heavy() {
  return ChainSpec::parse(
      "nat,"
      "maglev:backends=5:table=65537:subnet=10.2.0.10:port=8000:port-stride=1,"
      "monitor:heavy,ipfilter:blacklist=32",
      "chain1");
}

ChainSpec vii_c_chain2_heavy() {
  return ChainSpec::parse("ipfilter:blacklist=32,snort,monitor:heavy",
                          "chain2");
}

}  // namespace speedybox::plan
