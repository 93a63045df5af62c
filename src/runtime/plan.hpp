// The deployment-plan layer (DESIGN.md §12): chain topology and executor
// configuration as first-class, serializable data.
//
// A ChainSpec is an ordered list of registry tokens ("nat,maglev:backends=5",
// see nf/registry.hpp); a DeploymentPlan adds everything needed to run it —
// executor shape, mode, platform, batch size, shard count, ring capacity,
// overload/fault configuration, and explicit consolidation segments. Plans
// round-trip through JSON (telemetry::Json), so the offline planner
// (tools/planopt), chainsim (--plan / --emit-plan), the benches and the
// equivalence tests all exchange the same document, and plan::build() turns
// a validated plan into a ready runtime::Executor.
//
// Segments partition the chain into contiguous NF runs. The pipeline
// executor fuses each segment onto one worker core (fewer ring hops); a
// segment marked `parallel` additionally asserts that its members' state
// functions are pairwise parallelizable under Table I — validate() enforces
// that against the registry's payload-access metadata, so a plan cannot
// claim parallelism the paper's rule forbids. The single-threaded shapes
// run the §V-C2 parallel-schedule latency model when the plan turns the
// cycle model on; segments are validated planner metadata for them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nf/registry.hpp"
#include "platform/costs.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/runner.hpp"
#include "telemetry/json.hpp"

namespace speedybox::plan {

/// Any malformed spec/plan: parse errors, unknown fields, constraint
/// violations. Messages name the offending field and the valid choices.
class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class ExecutorKind : std::uint8_t { kRunner, kSharded, kPipeline };

const char* executor_kind_name(ExecutorKind kind) noexcept;
std::optional<ExecutorKind> parse_executor_kind(std::string_view name) noexcept;

/// An ordered chain of NF registry tokens. Parsing does not consult the
/// registry (unknown kinds stay representable); validate() does.
struct ChainSpec {
  std::string name = "chain";
  std::vector<nf::NfSpec> nfs;

  /// Parse "tok1,tok2,..." (tokens as in nf::NfSpec::parse). Throws
  /// PlanError on an empty spec, RegistryError on a malformed token.
  static ChainSpec parse(std::string_view spec, std::string name = "chain");
  /// Comma-joined canonical tokens; parse(to_string()) round-trips.
  std::string to_string() const;

  telemetry::Json to_json() const;
  static ChainSpec from_json(const telemetry::Json& json);

  /// Non-empty + every token resolves against the registry (kind and
  /// option keys/values). Throws PlanError / nf::RegistryError.
  void validate() const;

  bool operator==(const ChainSpec&) const = default;
};

struct SegmentSpec {
  /// Number of consecutive NFs in this segment (>= 1).
  std::size_t nf_count = 1;
  /// The members' state functions are pairwise parallelizable (Table I);
  /// checked by DeploymentPlan::validate() against the registry.
  bool parallel = false;

  bool operator==(const SegmentSpec&) const = default;
};

struct DeploymentPlan {
  ChainSpec chain;
  ExecutorKind executor = ExecutorKind::kRunner;
  /// SpeedyBox consolidation on (the fast path) vs the original per-NF
  /// traversal — chainsim's --mode, one value per plan.
  bool speedybox = true;
  platform::PlatformKind platform = platform::PlatformKind::kBess;
  std::size_t batch_size = net::kDefaultBatchSize;
  /// RunConfig::cycle_model: the runner and every shard keep the platform
  /// cycle model (the pipeline keeps none either way).
  bool cycle_model = false;
  std::size_t shards = 0;  // sharded executor only (and then required)
  std::size_t ring_capacity = 1024;
  /// Consolidation segments covering the chain in order; empty = one NF
  /// per segment (the pre-plan pipeline shape).
  std::vector<SegmentSpec> segments;
  runtime::OverloadConfig overload{};
  std::optional<std::pair<std::string, runtime::FaultSpec>> fault;
  /// Planner annotations (0 = not planner-emitted).
  double predicted_cycles_per_packet = 0.0;
  double target_rate_mpps = 0.0;

  telemetry::Json to_json() const;
  /// Strict: unknown top-level fields are errors, so a typoed knob cannot
  /// silently revert to its default. Throws PlanError.
  static DeploymentPlan from_json(const telemetry::Json& json);
  /// from_json over parsed text. Throws PlanError on syntax errors too.
  static DeploymentPlan parse(std::string_view text);
  std::string dump() const { return to_json().dump(); }

  /// Cross-field constraints (throws PlanError / nf::RegistryError):
  /// non-empty registry-valid chain; sharded <=> shards > 0 (every executor
  /// runs either mode); segments cover the chain exactly; parallel segments
  /// honor Table I; a fault target that is actually in the chain.
  void validate() const;

  /// Segment sizes for the pipeline constructor ({} when segments is
  /// empty, meaning one NF per stage).
  std::vector<std::size_t> segment_sizes() const;

  bool operator==(const DeploymentPlan& other) const {
    return dump() == other.dump();
  }
};

struct BuiltDeployment {
  // Declaration order matters: the executor borrows the chain, so it must
  // be destroyed (joining its threads) before the chain goes away.
  std::unique_ptr<runtime::ServiceChain> chain;
  std::unique_ptr<runtime::Executor> executor;
};

/// Build the chain alone: registry factories in spec order, NFs labeled
/// "<kind>-<index>", fault-injector wrapping every NF whose kind matches
/// `fault`'s target. Validates the spec first.
std::unique_ptr<runtime::ServiceChain> build_chain(
    const ChainSpec& spec,
    const std::optional<std::pair<std::string, runtime::FaultSpec>>& fault =
        std::nullopt);

/// The RunConfig a plan implies for every executor shape.
runtime::RunConfig run_config(const DeploymentPlan& plan);

/// validate() + build chain + construct the executor shape + apply the
/// overload policy. The returned executor is ready to run().
BuiltDeployment build(const DeploymentPlan& plan);

// -- Canonical §VII-C evaluation chains ------------------------------------
//
// THE single definition of the paper's two chains; every test, bench and
// tool builds them from here (ISSUE: no duplicated emplace_nf builders).

/// Chain 1 (gateway): NAT -> Maglev (5 backends 10.2.0.10+i, ports 8000+i,
/// table 1021) -> Monitor -> IpFilter(empty ACL).
ChainSpec vii_c_chain1();
/// Chain 2 (IDS): IpFilter(drop 10.1.3.0/24) -> Snort -> Monitor.
ChainSpec vii_c_chain2();

/// The heavy variants bench_fig9 drives (production-sized tables/ACLs):
/// chain 1 with a 65537-slot Maglev table, heavy monitor and a 32-rule
/// blacklist; chain 2 with the blacklist and heavy monitor.
ChainSpec vii_c_chain1_heavy();
ChainSpec vii_c_chain2_heavy();

}  // namespace speedybox::plan
