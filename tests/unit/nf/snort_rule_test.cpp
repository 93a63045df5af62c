#include "nf/snort_rule.hpp"

#include <gtest/gtest.h>

namespace speedybox::nf {
namespace {

TEST(ParseIpv4, Valid) {
  EXPECT_EQ(parse_ipv4("192.168.1.2"), net::Ipv4Addr(192, 168, 1, 2));
  EXPECT_EQ(parse_ipv4("0.0.0.0"), net::Ipv4Addr{0});
  EXPECT_EQ(parse_ipv4("255.255.255.255"), net::Ipv4Addr{0xFFFFFFFF});
}

TEST(ParseIpv4, Invalid) {
  EXPECT_FALSE(parse_ipv4("1.2.3").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.256").has_value());
  EXPECT_FALSE(parse_ipv4("a.b.c.d").has_value());
  EXPECT_FALSE(parse_ipv4("").has_value());
}

TEST(ParseSnortRule, FullRule) {
  const auto rule = parse_snort_rule(
      R"(alert tcp 10.0.0.1 any -> any 80 (content:"evil"; msg:"bad"; sid:42;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, SnortAction::kAlert);
  EXPECT_EQ(rule->proto, net::IpProto::kTcp);
  EXPECT_EQ(rule->src_ip, net::Ipv4Addr(10, 0, 0, 1));
  EXPECT_FALSE(rule->src_port.has_value());
  EXPECT_FALSE(rule->dst_ip.has_value());
  EXPECT_EQ(rule->dst_port, 80);
  ASSERT_EQ(rule->contents.size(), 1u);
  EXPECT_EQ(rule->contents[0].pattern, "evil");
  EXPECT_FALSE(rule->contents[0].nocase);
  EXPECT_EQ(rule->contents[0].offset, 0u);
  EXPECT_FALSE(rule->contents[0].depth.has_value());
  EXPECT_EQ(rule->msg, "bad");
  EXPECT_EQ(rule->sid, 42u);
}

TEST(ParseSnortRule, MultipleContents) {
  const auto rule = parse_snort_rule(
      R"(log udp any any -> any any (content:"a"; content:"b"; sid:1;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, SnortAction::kLog);
  EXPECT_EQ(rule->proto, net::IpProto::kUdp);
  ASSERT_EQ(rule->contents.size(), 2u);
  EXPECT_EQ(rule->contents[0].pattern, "a");
  EXPECT_EQ(rule->contents[1].pattern, "b");
}

TEST(ParseSnortRule, PassAction) {
  const auto rule = parse_snort_rule(
      R"(pass tcp any any -> any 80 (content:"GET /healthz"; sid:2;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, SnortAction::kPass);
}

TEST(ParseSnortRule, IpProtoMeansAny) {
  const auto rule =
      parse_snort_rule(R"(alert ip any any -> any any (content:"x"; sid:3;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_FALSE(rule->proto.has_value());
}

TEST(ParseSnortRule, UnknownOptionTolerated) {
  const auto rule = parse_snort_rule(
      R"(alert tcp any any -> any any (content:"x"; classtype:misc; sid:4;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->sid, 4u);
}

TEST(ParseSnortRule, Errors) {
  std::string error;
  EXPECT_FALSE(parse_snort_rule("bogus tcp any any -> any any (content:\"x\";)",
                                &error)
                   .has_value());
  EXPECT_NE(error.find("unknown action"), std::string::npos);

  EXPECT_FALSE(
      parse_snort_rule("alert tcp any any any 80 (content:\"x\";)", &error)
          .has_value());

  EXPECT_FALSE(
      parse_snort_rule("alert tcp any any -> any 80", &error).has_value());
  EXPECT_NE(error.find("option body"), std::string::npos);

  // content is mandatory.
  EXPECT_FALSE(
      parse_snort_rule("alert tcp any any -> any 80 (msg:\"m\"; sid:1;)",
                       &error)
          .has_value());
  EXPECT_NE(error.find("no content"), std::string::npos);

  // bad port
  EXPECT_FALSE(parse_snort_rule(
                   "alert tcp any any -> any 99999 (content:\"x\"; sid:1;)",
                   &error)
                   .has_value());
}

TEST(ParseSnortRule, AtMost64Contents) {
  const auto rule_with = [](int contents) {
    std::string line = "alert tcp any any -> any any (";
    for (int i = 0; i < contents; ++i) {
      line += "content:\"QZ" + std::to_string(i) + "\"; ";
    }
    return line + "sid:9;)";
  };
  const auto rule = parse_snort_rule(rule_with(64));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->contents.size(), kMaxSnortContents);

  std::string error;
  EXPECT_FALSE(parse_snort_rule(rule_with(65), &error).has_value());
  EXPECT_NE(error.find("more than 64 content options"), std::string::npos);
}

TEST(ParseSnortRules, FileWithCommentsAndBlanks) {
  const auto rules = parse_snort_rules(R"(
# comment
alert tcp any any -> any 80 (content:"one"; sid:1;)

log tcp any any -> any any (content:"two"; sid:2;)
)");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].sid, 1u);
  EXPECT_EQ(rules[1].sid, 2u);
}

TEST(ParseSnortRules, ThrowsOnMalformedLine) {
  EXPECT_THROW(parse_snort_rules("alert tcp broken"), std::invalid_argument);
}

TEST(HeaderMatches, FiltersByEveryDimension) {
  SnortRule rule;
  rule.proto = net::IpProto::kTcp;
  rule.dst_port = 80;
  net::FiveTuple tuple;
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  tuple.dst_port = 80;
  EXPECT_TRUE(rule.header_matches(tuple));

  tuple.dst_port = 81;
  EXPECT_FALSE(rule.header_matches(tuple));
  tuple.dst_port = 80;
  tuple.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  EXPECT_FALSE(rule.header_matches(tuple));
}

TEST(HeaderMatches, AnyMatchesEverything) {
  const SnortRule rule;  // all fields nullopt
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Addr{123};
  tuple.dst_port = 9999;
  tuple.proto = 250;
  EXPECT_TRUE(rule.header_matches(tuple));
}

TEST(ParseSnortRule, ContentModifiers) {
  const auto rule = parse_snort_rule(
      R"(alert tcp any any -> any 80 (content:"EvIl"; nocase; offset:4; depth:16; content:"tail"; sid:9;))");
  ASSERT_TRUE(rule.has_value());
  ASSERT_EQ(rule->contents.size(), 2u);
  EXPECT_TRUE(rule->contents[0].nocase);
  EXPECT_EQ(rule->contents[0].offset, 4u);
  EXPECT_EQ(rule->contents[0].depth, 16u);
  EXPECT_FALSE(rule->contents[1].nocase)
      << "modifiers bind to the preceding content only";
  EXPECT_EQ(rule->contents[1].offset, 0u);
}

TEST(ParseSnortRule, ModifierWithoutContentRejected) {
  std::string error;
  EXPECT_FALSE(
      parse_snort_rule("alert tcp any any -> any 80 (nocase; content:\"x\"; sid:1;)",
                       &error)
          .has_value());
  EXPECT_NE(error.find("nocase"), std::string::npos);
  EXPECT_FALSE(
      parse_snort_rule("alert tcp any any -> any 80 (offset:3; content:\"x\"; sid:1;)",
                       &error)
          .has_value());
}

TEST(ParseSnortRule, ZeroDepthRejected) {
  std::string error;
  EXPECT_FALSE(parse_snort_rule(
                   "alert tcp any any -> any 80 (content:\"x\"; depth:0; sid:1;)",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("depth"), std::string::npos);
}

TEST(ContentMatch, PositionConstraints) {
  nf::ContentMatch content;
  content.pattern = "abcd";
  content.offset = 2;
  content.depth = 3;  // start must be in [2, 5)
  EXPECT_FALSE(content.position_ok(4));   // start 0
  EXPECT_FALSE(content.position_ok(5));   // start 1
  EXPECT_TRUE(content.position_ok(6));    // start 2
  EXPECT_TRUE(content.position_ok(8));    // start 4
  EXPECT_FALSE(content.position_ok(9));   // start 5: outside depth window
}

TEST(SnortActionName, Stable) {
  EXPECT_EQ(snort_action_name(SnortAction::kPass), "pass");
  EXPECT_EQ(snort_action_name(SnortAction::kAlert), "alert");
  EXPECT_EQ(snort_action_name(SnortAction::kLog), "log");
}

}  // namespace
}  // namespace speedybox::nf
