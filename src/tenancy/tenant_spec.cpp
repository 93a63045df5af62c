#include "tenancy/tenant_spec.hpp"

namespace speedybox::tenancy {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw SpecError("tenant spec: " + message);
}

double positive_number(const telemetry::Json& value, const char* key) {
  if (!value.is_number() || value.as_number() <= 0.0) {
    fail(std::string("field '") + key + "' must be a number > 0");
  }
  return value.as_number();
}

std::uint64_t integer_field(const telemetry::Json& value, const char* key,
                            std::uint64_t lo, std::uint64_t hi) {
  if (!value.is_integer() || value.as_integer() < lo ||
      value.as_integer() > hi) {
    fail(std::string("field '") + key + "' must be an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value.as_integer();
}

}  // namespace

telemetry::Json TenantSpec::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  json.set("id", Json::string(id));
  json.set("plan", plan.to_json());
  json.set("slo_us", Json::number(slo_us));
  json.set("weight", Json::number(weight));
  if (listen_port != 0) json.set("listen_port", Json::integer(listen_port));
  json.set("workload", workload.to_json());
  return json;
}

TenantSpec TenantSpec::from_json(const telemetry::Json& json) {
  if (!json.is_object()) fail("each tenant must be an object");
  TenantSpec spec;
  bool saw_id = false;
  bool saw_plan = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "id") {
      if (!value.is_string() || value.as_string().empty()) {
        fail("field 'id' must be a non-empty string");
      }
      spec.id = value.as_string();
      saw_id = true;
    } else if (key == "plan") {
      spec.plan = plan::DeploymentPlan::from_json(value);
      saw_plan = true;
    } else if (key == "slo_us") {
      spec.slo_us = positive_number(value, "slo_us");
    } else if (key == "weight") {
      spec.weight = positive_number(value, "weight");
    } else if (key == "listen_port") {
      spec.listen_port = static_cast<std::uint16_t>(
          integer_field(value, "listen_port", 1, 65535));
    } else if (key == "workload") {
      spec.workload = trace::WorkloadSpec::from_json(value);
    } else {
      fail("unknown field '" + key + "'");
    }
  }
  if (!saw_id) fail("missing field 'id'");
  if (!saw_plan) fail("missing field 'plan' for tenant '" + spec.id + "'");
  return spec;
}

void TenantSpec::validate() const {
  if (id.empty()) fail("tenant id must be non-empty");
  plan.validate();
  if (plan.executor != plan::ExecutorKind::kRunner &&
      plan.executor != plan::ExecutorKind::kSharded) {
    fail("tenant '" + id + "': executor '" +
         plan::executor_kind_name(plan.executor) +
         "' cannot host a tenant (the pipeline records no per-packet "
         "latency for the SLO loop to read; use runner or sharded)");
  }
  if (slo_us <= 0.0) fail("tenant '" + id + "': slo_us must be > 0");
  if (weight <= 0.0) fail("tenant '" + id + "': weight must be > 0");
  workload.validate();
}

telemetry::Json EnforcementConfig::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  json.set("window_packets", Json::integer(window_packets));
  json.set("breach_streak",
           Json::integer(static_cast<std::uint64_t>(breach_streak)));
  json.set("calm_streak",
           Json::integer(static_cast<std::uint64_t>(calm_streak)));
  json.set("calm_fraction", Json::number(calm_fraction));
  json.set("cooldown_windows",
           Json::integer(static_cast<std::uint64_t>(cooldown_windows)));
  json.set("tighten_factor", Json::number(tighten_factor));
  json.set("min_budget", Json::integer(min_budget));
  json.set("tighten_admission", Json::boolean(tighten_admission));
  json.set("reallocate_shards", Json::boolean(reallocate_shards));
  return json;
}

EnforcementConfig EnforcementConfig::from_json(const telemetry::Json& json) {
  if (!json.is_object()) fail("field 'enforcement' must be an object");
  EnforcementConfig config;
  for (const auto& [key, value] : json.members()) {
    if (key == "window_packets") {
      config.window_packets =
          integer_field(value, "enforcement.window_packets", 1, UINT64_MAX);
    } else if (key == "breach_streak") {
      config.breach_streak = static_cast<int>(
          integer_field(value, "enforcement.breach_streak", 1, 1000));
    } else if (key == "calm_streak") {
      config.calm_streak = static_cast<int>(
          integer_field(value, "enforcement.calm_streak", 1, 1000));
    } else if (key == "calm_fraction") {
      config.calm_fraction = positive_number(value,
                                             "enforcement.calm_fraction");
    } else if (key == "cooldown_windows") {
      config.cooldown_windows = static_cast<int>(
          integer_field(value, "enforcement.cooldown_windows", 0, 1000));
    } else if (key == "tighten_factor") {
      config.tighten_factor = positive_number(value,
                                              "enforcement.tighten_factor");
    } else if (key == "min_budget") {
      config.min_budget =
          integer_field(value, "enforcement.min_budget", 1, UINT64_MAX);
    } else if (key == "tighten_admission") {
      if (!value.is_bool()) {
        fail("field 'enforcement.tighten_admission' must be a boolean");
      }
      config.tighten_admission = value.as_bool();
    } else if (key == "reallocate_shards") {
      if (!value.is_bool()) {
        fail("field 'enforcement.reallocate_shards' must be a boolean");
      }
      config.reallocate_shards = value.as_bool();
    } else {
      fail("unknown field 'enforcement." + key + "'");
    }
  }
  config.validate();
  return config;
}

void EnforcementConfig::validate() const {
  if (window_packets == 0) fail("enforcement.window_packets must be > 0");
  if (breach_streak < 1) fail("enforcement.breach_streak must be >= 1");
  if (calm_streak < 1) fail("enforcement.calm_streak must be >= 1");
  if (calm_fraction <= 0.0 || calm_fraction > 1.0) {
    fail("enforcement.calm_fraction must be within (0, 1]");
  }
  if (cooldown_windows < 0) fail("enforcement.cooldown_windows must be >= 0");
  if (tighten_factor <= 0.0 || tighten_factor >= 1.0) {
    fail("enforcement.tighten_factor must be within (0, 1)");
  }
  if (min_budget == 0) fail("enforcement.min_budget must be > 0");
}

telemetry::Json HostSpec::to_json() const {
  using telemetry::Json;
  Json json = Json::object();
  json.set("version", Json::integer(1));
  json.set("name", Json::string(name));
  Json list = Json::array();
  for (const TenantSpec& tenant : tenants) list.push(tenant.to_json());
  json.set("tenants", std::move(list));
  if (pool_shards > 0) json.set("pool_shards", Json::integer(pool_shards));
  json.set("enforcement", enforcement.to_json());
  return json;
}

HostSpec HostSpec::from_json(const telemetry::Json& json) {
  if (!json.is_object()) fail("document must be a JSON object");
  HostSpec spec;
  bool saw_tenants = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "version") {
      if (integer_field(value, "version", 1, UINT64_MAX) != 1) {
        fail("unsupported host spec version " +
             std::to_string(value.as_integer()));
      }
    } else if (key == "name") {
      if (!value.is_string()) fail("field 'name' must be a string");
      spec.name = value.as_string();
    } else if (key == "tenants") {
      if (!value.is_array() || value.elements().empty()) {
        fail("field 'tenants' must be a non-empty array");
      }
      for (const telemetry::Json& entry : value.elements()) {
        spec.tenants.push_back(TenantSpec::from_json(entry));
      }
      saw_tenants = true;
    } else if (key == "pool_shards") {
      spec.pool_shards = static_cast<std::size_t>(
          integer_field(value, "pool_shards", 1, 4096));
    } else if (key == "enforcement") {
      spec.enforcement = EnforcementConfig::from_json(value);
    } else {
      fail("unknown field '" + key + "'");
    }
  }
  if (!saw_tenants) fail("missing field 'tenants'");
  return spec;
}

HostSpec HostSpec::parse(std::string_view text) {
  const auto json = telemetry::Json::parse(text);
  if (!json) fail("not valid JSON");
  return from_json(*json);
}

std::size_t HostSpec::effective_pool_shards() const noexcept {
  if (pool_shards > 0) return pool_shards;
  std::size_t sum = 0;
  for (const TenantSpec& tenant : tenants) sum += tenant.plan.shards;
  return sum;
}

void HostSpec::validate() const {
  if (tenants.empty()) fail("host '" + name + "' has no tenants");
  enforcement.validate();
  std::size_t planned = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].validate();
    planned += tenants[i].plan.shards;
    for (std::size_t j = i + 1; j < tenants.size(); ++j) {
      if (tenants[i].id == tenants[j].id) {
        fail("duplicate tenant id '" + tenants[i].id + "'");
      }
      if (tenants[i].listen_port != 0 &&
          tenants[i].listen_port == tenants[j].listen_port) {
        fail("tenants '" + tenants[i].id + "' and '" + tenants[j].id +
             "' share listen_port " +
             std::to_string(tenants[i].listen_port));
      }
    }
  }
  if (pool_shards > 0 && planned > pool_shards) {
    fail("tenants plan " + std::to_string(planned) +
         " shards but pool_shards is " + std::to_string(pool_shards));
  }
}

}  // namespace speedybox::tenancy
