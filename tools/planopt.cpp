// planopt — offline profile-guided consolidation planner (DESIGN.md §12).
//
// Reads per-NF cycle statistics from a chainsim telemetry capture and emits
// the deployment-plan document predicted to meet a target rate:
//
//   chainsim --chain ipfilter,snort,monitor --mode original
//            --metrics-out profile.jsonl
//   planopt --chain ipfilter,snort,monitor --profile profile.jsonl
//           --target-mpps 2.0 --out plan.json
//   chainsim --plan plan.json
//
// `--chain @chain1|@chain2|@chain1-heavy|@chain2-heavy` expands to the
// canonical §VII-C evaluation chains. Without --profile every NF costs
// --default-nf-cycles (the plan is still valid, just unranked).
#include <cstdio>
#include <string>

#include "nf/registry.hpp"
#include "runtime/planner.hpp"
#include "sim_config.hpp"

using namespace speedybox;

namespace {

constexpr const char* kTool = "planopt";

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --chain nf1,nf2,... [options]\n"
      "\n"
      "Emit the deployment plan predicted to meet --target-mpps for the\n"
      "chain, using per-NF cycle costs from a telemetry capture. Chain\n"
      "tokens are NF registry specs (\"maglev:backends=5:table=1021\");\n"
      "@chain1 @chain2 @chain1-heavy @chain2-heavy name the canonical\n"
      "SpeedyBox evaluation chains.\n"
      "\n"
      "options:\n"
      "  --profile FILE         chainsim --metrics-out capture (JSON lines;\n"
      "                         the last snapshot's aggregate.per_nf is the\n"
      "                         profile). Profile the per-NF path: run with\n"
      "                         --mode original. Omit to plan unprofiled.\n"
      "  --target-mpps X        rate the deployment must sustain (default 1)\n"
      "  --max-shards N         shard ceiling (default 8)\n"
      "  --cpu-ghz G            core frequency for cycles->rate (default:\n"
      "                         this machine's measured TSC frequency)\n"
      "  --hop-cycles N         modeled per-segment fixed cost (default 60)\n"
      "  --default-nf-cycles N  cost for unprofiled NFs (default 500)\n"
      "  --out FILE             plan destination (default \"-\" = stdout)\n"
      "  --explain              print the per-NF model and the chosen\n"
      "                         segments to stderr\n",
      argv0);
  std::exit(2);
}

plan::ChainSpec resolve_chain(const std::string& spec) {
  if (spec == "@chain1") return plan::vii_c_chain1();
  if (spec == "@chain2") return plan::vii_c_chain2();
  if (spec == "@chain1-heavy") return plan::vii_c_chain1_heavy();
  if (spec == "@chain2-heavy") return plan::vii_c_chain2_heavy();
  if (!spec.empty() && spec[0] == '@') {
    tools::config_error(kTool, "unknown named chain \"" + spec +
                                   "\" (choose @chain1, @chain2, "
                                   "@chain1-heavy or @chain2-heavy)");
  }
  return plan::ChainSpec::parse(spec, "planopt");
}

}  // namespace

int main(int argc, char** argv) {
  std::string chain_spec;
  std::string profile_file;
  std::string out = "-";
  bool explain = false;
  plan::PlannerConfig planner_config;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chain") {
      chain_spec = need_value(i);
    } else if (arg == "--profile") {
      profile_file = need_value(i);
    } else if (arg == "--target-mpps") {
      planner_config.target_mpps =
          tools::parse_double_flag(kTool, "--target-mpps", need_value(i));
    } else if (arg == "--max-shards") {
      planner_config.max_shards =
          tools::parse_uint_flag(kTool, "--max-shards", need_value(i));
    } else if (arg == "--cpu-ghz") {
      planner_config.cpu_ghz =
          tools::parse_double_flag(kTool, "--cpu-ghz", need_value(i));
    } else if (arg == "--hop-cycles") {
      planner_config.hop_cycles = static_cast<double>(
          tools::parse_uint_flag(kTool, "--hop-cycles", need_value(i), 0));
    } else if (arg == "--default-nf-cycles") {
      planner_config.default_nf_cycles =
          static_cast<double>(tools::parse_uint_flag(
              kTool, "--default-nf-cycles", need_value(i)));
    } else if (arg == "--out") {
      out = need_value(i);
    } else if (arg == "--explain") {
      explain = true;
    } else {
      usage(argv[0]);
    }
  }
  if (chain_spec.empty()) usage(argv[0]);

  plan::Profile profile;
  if (!profile_file.empty()) {
    const std::string text =
        tools::read_flag_file(kTool, "--profile", profile_file);
    try {
      profile = plan::Profile::from_jsonl(text);
    } catch (const std::exception& error) {
      tools::config_error(kTool,
                          "--profile " + profile_file + ": " + error.what());
    }
  }

  plan::DeploymentPlan deployment;
  plan::PlanRationale rationale;
  try {
    const plan::ChainSpec spec = resolve_chain(chain_spec);
    deployment =
        plan::plan_deployment(spec, profile, planner_config, &rationale);
  } catch (const std::exception& error) {
    tools::config_error(kTool, error.what());
  }

  if (explain) {
    std::fprintf(stderr, "planopt: per-NF model (chain \"%s\"):\n",
                 deployment.chain.name.c_str());
    for (std::size_t i = 0; i < deployment.chain.nfs.size(); ++i) {
      std::fprintf(stderr, "  %-28s %8.0f cycles %s\n",
                   deployment.chain.nfs[i].to_string().c_str(),
                   rationale.nf_cycles[i],
                   rationale.nf_profiled[i] ? "(profiled)" : "(default)");
    }
    std::fprintf(stderr, "planopt: segments:");
    for (const plan::SegmentSpec& segment : deployment.segments) {
      std::fprintf(stderr, " [%zu%s]", segment.nf_count,
                   segment.parallel ? " parallel" : "");
    }
    std::fprintf(stderr,
                 "\nplanopt: predicted %.0f cycles/pkt = %.3f Mpps/core -> "
                 "%zu shard%s for %.3f Mpps target\n",
                 rationale.predicted_cycles_per_packet,
                 rationale.predicted_single_core_mpps, rationale.shards,
                 rationale.shards == 1 ? "" : "s",
                 planner_config.target_mpps);
  }

  return tools::write_plan(kTool, out, deployment) ? 0 : 1;
}
