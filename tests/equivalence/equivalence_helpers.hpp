// Shared harness for the §VII-C equivalence studies: run the SAME workload
// through an original chain and a SpeedyBox chain (independent NF
// instances), collecting the surviving output packets of each, with an
// optional mid-run control-plane action (e.g. failing a Maglev backend)
// applied identically to both runs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runner.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace speedybox::testing {

struct EquivalenceRun {
  std::vector<net::Packet> outputs;  // non-dropped packets, in order
  std::uint64_t drops = 0;
};

/// `mid_run_action(chain, packet_index)` is invoked before each packet and
/// may mutate NF state (both runs receive identical calls).
inline EquivalenceRun run_chain(
    runtime::ServiceChain& chain, const trace::Workload& workload,
    bool speedybox,
    const std::function<void(runtime::ServiceChain&, std::size_t)>&
        mid_run_action = {}) {
  runtime::ChainRunner runner{
      chain, {platform::PlatformKind::kBess, speedybox}};
  EquivalenceRun run;
  for (std::size_t i = 0; i < workload.order.size(); ++i) {
    if (mid_run_action) mid_run_action(chain, i);
    net::Packet packet = workload.materialize(i);
    const auto outcome = runner.process_packet(packet);
    if (outcome.dropped) {
      ++run.drops;
    } else {
      run.outputs.push_back(std::move(packet));
    }
  }
  return run;
}

inline void expect_identical_outputs(const EquivalenceRun& original,
                                     const EquivalenceRun& speedybox) {
  EXPECT_EQ(original.drops, speedybox.drops);
  ASSERT_EQ(original.outputs.size(), speedybox.outputs.size());
  for (std::size_t i = 0; i < original.outputs.size(); ++i) {
    ASSERT_TRUE(same_bytes(original.outputs[i], speedybox.outputs[i]))
        << "output packet " << i << " differs";
  }
}

}  // namespace speedybox::testing
