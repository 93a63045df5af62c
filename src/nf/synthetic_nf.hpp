// Synthetic NF for the state-function-parallelism microbenchmark (Fig. 5):
// "the synthetic NF has no header action, and has one state function that is
// equivalent to the Snort packet inspection (does not modify payload)".
//
// The state-function cost is a real computation over the payload (repeated
// FNV hashing for READ, byte rewriting for WRITE, register arithmetic for
// IGNORE) so measured cycles are genuine work, and the payload-access class
// is configurable to exercise every row of Table I.
#pragma once

#include <cstdint>
#include <optional>

#include "nf/network_function.hpp"

namespace speedybox::nf {

struct SyntheticNfConfig {
  /// Number of passes of the work kernel per packet; scales SF cost.
  std::uint32_t work_iterations = 8;
  core::PayloadAccess access = core::PayloadAccess::kRead;
  /// Optional header action this NF applies/records (none by default,
  /// matching the Fig. 5 setup).
  std::optional<core::HeaderAction> header_action;
};

class SyntheticNf : public NetworkFunction {
 public:
  explicit SyntheticNf(SyntheticNfConfig config = {},
                       std::string name = "synthetic");

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override;
  std::unique_ptr<NetworkFunction> clone() const override {
    return std::make_unique<SyntheticNf>(config_, name());
  }

  /// Deterministic digest of all work performed — equal across baseline and
  /// SpeedyBox runs iff the state function executed identically.
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  void run_state_function(net::Packet& packet,
                          const net::ParsedPacket& parsed);

  SyntheticNfConfig config_;
  std::uint64_t digest_ = 0;
  // The recorded name, built once: flow records keep views of it.
  const std::string work_name_ = name() + ".work";
};

}  // namespace speedybox::nf
