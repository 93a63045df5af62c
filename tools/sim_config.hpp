// chainsim's flag surface — parse/validate/echo. The flags fill the two
// documents that describe a run: a plan::DeploymentPlan says what runs
// (--plan loads one instead), and a trace::WorkloadSpec says what feeds it.
// Each document's own validate() is the only check of what it holds;
// SimConfig adds the settings that only shape the run (mode, packet
// source, live front-end, metrics, autoscaling, tenancy), and one table of
// rules over the flags given rejects the combinations that would fight or
// do nothing. planopt and loadgen share the parsing helpers and the same
// loud-error contract.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "io/ingest_server.hpp"
#include "runtime/plan.hpp"
#include "trace/workload_spec.hpp"

namespace speedybox::tools {

/// Print "<tool>: <message>" to stderr and exit 2 — the shared diagnostic
/// path for every flag/spec error in the CLI tools.
[[noreturn]] void config_error(const std::string& tool,
                               const std::string& message);

/// Strict numeric flag parsers: the whole value must parse and satisfy the
/// bounds, else config_error names the flag. Shared by every CLI tool.
std::uint64_t parse_uint_flag(
    const std::string& tool, const char* flag, const char* value,
    std::uint64_t min_value = 1,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());
double parse_double_flag(const std::string& tool, const char* flag,
                         const char* value, bool positive = true);

/// The contents of the file a flag names; config_error if it is unreadable.
std::string read_flag_file(const std::string& tool, const char* flag,
                           const std::string& path);

/// Write a plan document to `path` ("-" = stdout). On failure prints a
/// diagnostic and returns false.
bool write_plan(const std::string& tool, const std::string& path,
                const plan::DeploymentPlan& deployment);

/// The flags given on one command line, as typed ("--flows").
using FlagSet = std::set<std::string, std::less<>>;

/// The workload chainsim and loadgen start from: 100 uniform flows of 20
/// packets with 128 B payloads, seed 42.
inline const trace::WorkloadSpec kToolWorkload{.flows = 100,
                                               .packets_per_flow = 20};

/// Finish a flag-built workload: the spec must validate, --packets applies
/// to the uniform generator only, and a named scenario keeps its own
/// population unless --flows scales it. config_error on a violation.
void resolve_workload(const std::string& tool, const FlagSet& given,
                      trace::WorkloadSpec& workload);

struct SimConfig {
  /// What runs: filled by the deployment flags, or loaded from --plan.
  /// Under --mode both it holds the speedybox leg.
  plan::DeploymentPlan deployment;
  /// What feeds it when the trace is generated (no --pcap/--listen).
  trace::WorkloadSpec workload = kToolWorkload;
  /// Every flag on the command line, for the rules validate() checks.
  FlagSet given;

  // -- settings that only shape the run --
  bool both_modes = false;  // --mode both (a flag-built run's default)
  std::string pcap_in;
  std::string pcap_out;
  std::optional<std::size_t> fail_backend_at;  // packet index; backend 0 dies
  bool csv = false;
  bool print_config = false;
  std::string plan_file;  // --plan: run FROM this plan document
  std::string emit_plan;  // --emit-plan: write the plan and exit ("-"=stdout)
  std::string metrics_out;                // JSON-lines snapshot file
  std::string metrics_prom;               // Prometheus text (overwritten)
  std::uint64_t metrics_interval_ms = 0;  // 0 = final snapshot only
  std::uint32_t trace_sample = 0;  // 1-in-N packet span sampling (0 = off)
  // -- live ingestion (DESIGN.md §11): --listen switches the packet source
  // -- from the in-process trace to a real socket. The front-end's flags
  // -- fill `ingest`; its burst size is the deployment's batch_size. --
  bool listen = false;
  io::IngestConfig ingest;
  // -- multi-tenant hosting (DESIGN.md §14): a tenancy::HostSpec document
  // -- replaces the single deployment and its workload --
  std::string tenancy_file;
  // -- autoscaling (control plane; sharded executor only) --
  bool autoscale = false;
  double slo_us = 50.0;
  std::size_t min_shards = 1;
  std::size_t max_shards = 0;  // the starting --shards unless given
  std::uint64_t scale_interval = 2048;

  static SimConfig parse(int argc, char** argv);
  /// Exits with a diagnostic on any flag combination that would be
  /// silently ignored or fight another flag at run time.
  void validate() const;
  /// Load --plan, then validate the deployment and the workload documents
  /// (the registry's unknown-NF/unknown-option messages pass through
  /// verbatim). Exits with a loud diagnostic on any spec error.
  void resolve_plan();
  /// The deployment re-targeted at one data path (--mode both runs the
  /// same plan twice with the flag flipped).
  plan::DeploymentPlan plan_for(bool speedybox) const;
  /// JSON echo of the run (--print-config): the deployment and workload
  /// documents plus the run-only settings.
  std::string to_json() const;
};

}  // namespace speedybox::tools
