#include "nf/snort_ids.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

std::vector<SnortRule> test_rules() {
  return parse_snort_rules(R"(
alert tcp any any -> any 80 (content:"attack"; msg:"m1"; sid:100;)
log tcp any any -> any 80 (content:"curious"; msg:"m2"; sid:200;)
pass tcp any any -> any 80 (content:"healthz"; msg:"m3"; sid:300;)
alert tcp any any -> any 443 (content:"tls-bad"; msg:"m4"; sid:400;)
alert tcp any any -> any any (content:"multi"; content:"part"; msg:"m5"; sid:500;)
)");
}

TEST(SnortIds, AlertsOnMatchingPayload) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(1, 80), "an attack here");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].sid, 100u);
  EXPECT_EQ(snort.log()[0].action, SnortAction::kAlert);
  EXPECT_EQ(snort.alert_count(), 1u);
  EXPECT_FALSE(packet.dropped()) << "IDS only observes";
}

TEST(SnortIds, CleanPayloadNoLog) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(2, 80), "nothing here");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
}

TEST(SnortIds, PortGroupFiltering) {
  SnortIds snort{test_rules()};
  // "attack" rule is dst-port-80 only; on port 443 it must not fire.
  net::Packet packet =
      net::make_tcp_packet(tuple_n(3, 443), "an attack here");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
}

TEST(SnortIds, LogAction) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(4, 80), "curious cat");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].action, SnortAction::kLog);
  EXPECT_EQ(snort.log_count(), 1u);
}

TEST(SnortIds, PassSuppressesAlert) {
  SnortIds snort{test_rules()};
  // Payload matches both the pass rule and the alert rule: pass-first order
  // suppresses the alert.
  net::Packet packet =
      net::make_tcp_packet(tuple_n(5, 80), "healthz attack");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
  EXPECT_EQ(snort.pass_count(), 1u);
}

TEST(SnortIds, MultiContentRuleNeedsAllContents) {
  SnortIds snort{test_rules()};
  net::Packet partial = net::make_tcp_packet(tuple_n(6, 80), "multi only");
  snort.process(partial, nullptr);
  EXPECT_TRUE(snort.log().empty());

  net::Packet full =
      net::make_tcp_packet(tuple_n(7, 80), "multi and part");
  snort.process(full, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].sid, 500u);
}

TEST(SnortIds, PerPacketInspectionRepeats) {
  SnortIds snort{test_rules()};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(8, 80), "attack");
    snort.process(packet, nullptr);
  }
  EXPECT_EQ(snort.alert_count(), 3u) << "every packet is inspected";
}

TEST(SnortIds, RecordsForwardAndReadStateFunction) {
  SnortIds snort{test_rules()};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 11};

  net::Packet packet = net::make_tcp_packet(tuple_n(9, 80), "attack");
  packet.set_fid(11);
  snort.process(packet, &ctx);

  const core::FlowRecord* rule = &record;
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->header_actions.size(), 1u);
  EXPECT_EQ(rule->header_actions[0].type, core::HeaderActionType::kForward);
  ASSERT_EQ(rule->functions.size(), 1u);
  EXPECT_EQ(rule->functions[0].access, core::PayloadAccess::kRead);
}

TEST(SnortIds, RecordedHandlerInspectsLikeProcess) {
  SnortIds snort{test_rules()};
  core::FlowRecord record;
  core::SpeedyBoxContext ctx{record, 0, 12};

  net::Packet initial = net::make_tcp_packet(tuple_n(10, 80), "clean");
  initial.set_fid(12);
  snort.process(initial, &ctx);
  EXPECT_EQ(snort.alert_count(), 0u);

  // Invoke the recorded handler on a malicious subsequent packet.
  net::Packet subsequent = net::make_tcp_packet(tuple_n(10, 80), "attack!");
  const auto parsed = net::parse_packet(subsequent);
  record.handlers[0](subsequent, *parsed);
  EXPECT_EQ(snort.alert_count(), 1u);
}

TEST(SnortIds, FlowStateFreedOnFin) {
  SnortIds snort{test_rules()};
  net::Packet open = net::make_tcp_packet(tuple_n(11, 80), "x");
  snort.process(open, nullptr);
  EXPECT_EQ(snort.tracked_flows(), 1u);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(11, 80), "", net::kTcpFlagFin | net::kTcpFlagAck);
  snort.process(fin, nullptr);
  EXPECT_EQ(snort.tracked_flows(), 0u);
}

TEST(SnortIds, NocaseMatchesAnyCapitalization) {
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"attack"; nocase; sid:700;))")};
  for (const char* payload : {"ATTACK", "AtTaCk now", "attack"}) {
    net::Packet packet = net::make_tcp_packet(tuple_n(20, 80), payload);
    snort.process(packet, nullptr);
  }
  EXPECT_EQ(snort.alert_count(), 3u);

  // Case-sensitive rules must NOT match the wrong case.
  SnortIds strict{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"attack"; sid:701;))")};
  net::Packet upper = net::make_tcp_packet(tuple_n(21, 80), "ATTACK");
  strict.process(upper, nullptr);
  EXPECT_EQ(strict.alert_count(), 0u);
}

TEST(SnortIds, OffsetDepthConstrainMatchPosition) {
  // Content must start within payload bytes [4, 4+4): classic "match the
  // command field, not the body".
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"EVIL"; offset:4; depth:4; sid:702;))")};

  net::Packet in_window = net::make_tcp_packet(tuple_n(22, 80), "xxxxEVIL");
  snort.process(in_window, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u);

  net::Packet too_early = net::make_tcp_packet(tuple_n(23, 80), "EVILxxxx");
  snort.process(too_early, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u) << "match before offset must not fire";

  net::Packet too_late =
      net::make_tcp_packet(tuple_n(24, 80), "xxxxxxxxxxEVIL");
  snort.process(too_late, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u) << "match beyond depth must not fire";
}

TEST(SnortIds, MixedCaseClassesInOneRule) {
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"HDR"; nocase; content:"body"; sid:703;))")};
  net::Packet both = net::make_tcp_packet(tuple_n(25, 80), "hdr ... body");
  snort.process(both, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u);

  net::Packet wrong_case_body =
      net::make_tcp_packet(tuple_n(26, 80), "hdr ... BODY");
  snort.process(wrong_case_body, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u)
      << "the case-sensitive content must still be enforced";
}

SnortRule rule_with_contents(int contents) {
  SnortRule rule;
  rule.sid = 900;
  for (int i = 0; i < contents; ++i) {
    ContentMatch content;
    content.pattern = "QZ" + std::to_string(100 + i);
    rule.contents.push_back(content);
  }
  return rule;
}

std::string contents_payload(int first, int last) {
  std::string payload;
  for (int i = first; i < last; ++i) {
    payload += "QZ" + std::to_string(100 + i) + " ";
  }
  return payload;
}

TEST(SnortIds, SixtyFourContentsNeedEveryOne) {
  SnortIds snort{{rule_with_contents(64)}};
  net::Packet missing_first =
      net::make_tcp_packet(tuple_n(27, 80), contents_payload(1, 64));
  snort.process(missing_first, nullptr);
  EXPECT_EQ(snort.alert_count(), 0u);
  net::Packet all =
      net::make_tcp_packet(tuple_n(27, 80), contents_payload(0, 64));
  snort.process(all, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u);
}

TEST(SnortIds, RejectsRuleOverContentLimit) {
  EXPECT_THROW(SnortIds{{rule_with_contents(65)}}, std::invalid_argument);
}

TEST(SnortIds, LogRecordsFlowTuple) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(12, 80), "attack");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].tuple, tuple_n(12, 80));
}

/// What `rules` should do with one payload, found rule by rule: a rule
/// fires when its header matches and every content occurs, ASCII-folded
/// when `nocase`, at a start its offset and depth allow. Nullopt when a
/// firing pass rule suppresses the packet, else the log entries in rule
/// order.
std::optional<std::vector<SnortLogEntry>> naive_verdict(
    const std::vector<SnortRule>& rules, const net::FiveTuple& tuple,
    const std::string& payload) {
  const auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  const auto occurs = [&](const ContentMatch& content) {
    const std::string& pattern = content.pattern;
    for (std::size_t start = content.offset;
         start + pattern.size() <= payload.size(); ++start) {
      if (content.depth && start >= content.offset + *content.depth) break;
      bool same = true;
      for (std::size_t k = 0; same && k < pattern.size(); ++k) {
        same = content.nocase ? fold(payload[start + k]) == fold(pattern[k])
                              : payload[start + k] == pattern[k];
      }
      if (same) return true;
    }
    return false;
  };
  std::vector<SnortLogEntry> fired;
  for (const SnortRule& rule : rules) {
    if (!rule.header_matches(tuple) ||
        !std::all_of(rule.contents.begin(), rule.contents.end(), occurs)) {
      continue;
    }
    if (rule.action == SnortAction::kPass) return std::nullopt;
    fired.push_back({tuple, rule.sid, rule.action});
  }
  return fired;
}

/// Payloads of 512 B and 1460 B take the matcher's interleaved walk, whose
/// stripes meet within a pattern length of the quarter marks. Each default
/// rule's contents go back to back from a sweep of starts across every
/// quarter mark, and again ending in the last byte, on lowercase filler,
/// on port 80 and on a port only the any-port rules see. `nocase` contents
/// take random capitalization, and a quarter of the others one flipped
/// letter. Counts and log match a naive per-rule evaluation.
TEST(SnortIds, LongPayloadsMatchNaiveRuleEvaluation) {
  const std::vector<SnortRule> rules = default_snort_rules();
  SnortIds snort{rules};
  util::Rng rng{2019};
  std::vector<SnortLogEntry> expected_log;
  std::uint64_t expected_passes = 0;
  const auto inspect = [&](const net::FiveTuple& tuple,
                           const std::string& payload) {
    net::Packet packet = net::make_tcp_packet(tuple, payload);
    snort.process(packet, nullptr);
    const auto verdict = naive_verdict(rules, tuple, payload);
    if (!verdict) {
      ++expected_passes;
    } else {
      expected_log.insert(expected_log.end(), verdict->begin(),
                          verdict->end());
    }
  };

  for (const std::size_t size : {512, 1460}) {
    for (const SnortRule& rule : rules) {
      // The rule's contents as planted, each followed by one filler byte.
      std::string planted;
      for (const ContentMatch& content : rule.contents) {
        std::string bytes = content.pattern;
        for (char& c : bytes) {
          const bool letter = (c | 0x20) >= 'a' && (c | 0x20) <= 'z';
          if (letter && content.nocase && rng.chance(0.5)) c ^= 0x20;
        }
        if (!content.nocase && rng.chance(0.25)) {
          char& c = bytes[rng.below(bytes.size())];
          if ((c | 0x20) >= 'a' && (c | 0x20) <= 'z') c ^= 0x20;
        }
        planted += bytes + "-";
      }
      planted.pop_back();

      std::vector<std::size_t> starts{size - planted.size()};
      for (const std::size_t quarter : {size / 4, size / 2, 3 * size / 4}) {
        for (std::size_t d = 0; d <= 2 * planted.size(); ++d) {
          starts.push_back(quarter - planted.size() + d);
        }
      }
      for (const std::size_t start : starts) {
        std::string payload(size, 'a');
        for (char& c : payload) c = static_cast<char>('a' + rng.below(26));
        payload.replace(start, planted.size(), planted);
        inspect(tuple_n(40, 80), payload);
        inspect(tuple_n(41, 8080), payload);
      }
    }
  }

  ASSERT_EQ(snort.log(), expected_log);
  const auto entries = [&](SnortAction action) {
    return static_cast<std::uint64_t>(
        std::count_if(expected_log.begin(), expected_log.end(),
                      [action](const SnortLogEntry& entry) {
                        return entry.action == action;
                      }));
  };
  EXPECT_EQ(snort.alert_count(), entries(SnortAction::kAlert));
  EXPECT_EQ(snort.log_count(), entries(SnortAction::kLog));
  EXPECT_EQ(snort.pass_count(), expected_passes);
  EXPECT_GT(snort.alert_count(), 0u);
  EXPECT_GT(snort.log_count(), 0u);
  EXPECT_GT(snort.pass_count(), 0u);
}

}  // namespace
}  // namespace speedybox::nf
