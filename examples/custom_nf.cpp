// Tutorial: writing your own NF against the SpeedyBox API — the Fig. 3
// walkthrough as a runnable program.
//
// Implements a small rate-limiter NF from scratch (not one of the bundled
// NFs) and shows the full integration recipe:
//
//   1. process packets normally (parse, look up flow state, act);
//   2. on the recording pass, describe the behavior through the context:
//      header action, state function, event, teardown hook;
//   3. watch an event flip a flow's fast-path rule from modify to drop the
//      moment its counter crosses the threshold.
//
//   $ ./custom_nf
#include <cstdio>
#include <unordered_map>

#include "net/packet_builder.hpp"
#include "nf/network_function.hpp"
#include "runtime/runner.hpp"

using namespace speedybox;

namespace {

/// Example NF: marks flows with a DSCP class while they are under a packet
/// budget; flows exceeding the budget are dropped — the Fig. 3 pattern
/// (modify action replaced by drop through an event).
class RateLimiter final : public nf::NetworkFunction {
 public:
  explicit RateLimiter(std::uint64_t budget)
      : NetworkFunction("ratelimiter"), budget_(budget) {}

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override {
    count_packet();
    const auto parsed = parse_and_check(packet);  // step 1: normal parsing
    if (!parsed) return;
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);

    // Normal processing: verdict from the state *before* this packet
    // (evaluate-on-arrival, the Event Table semantics), then count.
    std::uint64_t& count = packets_seen_[tuple];
    if (count > budget_) {
      packet.mark_dropped();
      return;
    }
    ++count;
    core::apply_action_baseline(mark_action(), packet);

    if (ctx == nullptr) return;  // original path: nothing else to do

    // Step 2: record the same behavior into the flow's record. Each
    // lambda's captures are stored inline in the record, so they must be
    // trivially copyable and at most 32 bytes: [this, tuple] is 24. A
    // lambda capturing a std::vector or std::string does not compile (the
    // error names CaptureOwnsMemoryOrIsTooLarge); keep such state in the
    // NF and capture a pointer to it. Names are views, so pass strings
    // that outlive the flow: literals here, members built once per
    // instance in the bundled NFs.
    ctx->add_header_action(mark_action());
    core::localmat_add_SF(
        ctx,
        [this, tuple](net::Packet&, const net::ParsedPacket&) {
          ++packets_seen_[tuple];
        },
        core::PayloadAccess::kIgnore, "ratelimiter.count");

    // Step 3: the event — when the budget is exceeded, replace this NF's
    // header actions for the flow with drop and re-consolidate.
    ctx->register_event(
        "ratelimiter.exceeded",
        [this, tuple] {
          const auto it = packets_seen_.find(tuple);
          return it != packets_seen_.end() && it->second > budget_;
        },
        [] {
          core::EventUpdate update;
          update.header_actions = {core::HeaderAction::drop()};
          return update;
        },
        /*one_shot=*/true);

    // Step 4: free per-flow state when the connection closes.
    ctx->on_teardown([this, tuple] { packets_seen_.erase(tuple); });
  }

 private:
  static core::HeaderAction mark_action() {
    return core::HeaderAction::modify(net::HeaderField::kTos,
                                      0xB8);  // DSCP EF
  }

  std::uint64_t budget_;
  std::unordered_map<net::FiveTuple, std::uint64_t, net::FiveTupleHash>
      packets_seen_;
};

}  // namespace

int main() {
  constexpr std::uint64_t kBudget = 5;
  runtime::ServiceChain chain{"custom"};
  chain.emplace_nf<RateLimiter>(kBudget);
  runtime::ChainRunner runner{
      chain, {platform::PlatformKind::kBess, /*speedybox=*/true}};

  net::FiveTuple flow;
  flow.src_ip = net::Ipv4Addr{192, 168, 0, 5};
  flow.dst_ip = net::Ipv4Addr{10, 1, 0, 9};
  flow.src_port = 5555;
  flow.dst_port = 80;

  std::printf("rate limiter budget: %llu packets per flow\n\n",
              static_cast<unsigned long long>(kBudget));
  for (int i = 1; i <= 10; ++i) {
    net::Packet packet = net::make_tcp_packet(flow, "data");
    const auto outcome = runner.process_packet(packet);
    const core::FlowRecord* rule =
        chain.global_mat().find(packet.fid());
    std::printf("pkt %2d: %-9s %-9s  consolidated rule: %s\n", i,
                outcome.initial ? "initial" : "fast-path",
                outcome.dropped ? "DROPPED" : "marked",
                rule != nullptr ? rule->action.to_string().c_str() : "-");
  }
  std::printf("\nThe event fired when the counter crossed the budget: the\n"
              "flow's rule flipped from modify(tos) to drop and every later\n"
              "packet was dropped at the head of the chain (Fig. 3).\n");
  return 0;
}
