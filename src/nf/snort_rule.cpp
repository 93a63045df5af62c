#include "nf/snort_rule.hpp"

#include <charconv>
#include <stdexcept>

namespace speedybox::nf {
namespace {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Pop the next whitespace-delimited token from *s.
std::string_view next_token(std::string_view* s) noexcept {
  *s = trim(*s);
  std::size_t end = 0;
  while (end < s->size() && (*s)[end] != ' ' && (*s)[end] != '\t') ++end;
  const std::string_view token = s->substr(0, end);
  s->remove_prefix(end);
  return token;
}

bool parse_u32(std::string_view text, std::uint32_t* out) noexcept {
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool parse_header(std::string_view* rest, SnortRule* rule,
                  std::string* error) {
  const std::string_view proto = next_token(rest);
  if (proto == "tcp") {
    rule->proto = net::IpProto::kTcp;
  } else if (proto == "udp") {
    rule->proto = net::IpProto::kUdp;
  } else if (proto == "ip") {
    rule->proto = std::nullopt;
  } else {
    return set_error(error, "unknown protocol '" + std::string(proto) + "'");
  }

  const auto parse_addr = [&](std::string_view token,
                              std::optional<net::Ipv4Addr>* out) {
    if (token == "any") {
      out->reset();
      return true;
    }
    const auto addr = parse_ipv4(token);
    if (!addr) return false;
    *out = *addr;
    return true;
  };
  const auto parse_port = [&](std::string_view token,
                              std::optional<std::uint16_t>* out) {
    if (token == "any") {
      out->reset();
      return true;
    }
    std::uint32_t value = 0;
    if (!parse_u32(token, &value) || value > 0xFFFF) return false;
    *out = static_cast<std::uint16_t>(value);
    return true;
  };

  if (!parse_addr(next_token(rest), &rule->src_ip)) {
    return set_error(error, "bad source address");
  }
  if (!parse_port(next_token(rest), &rule->src_port)) {
    return set_error(error, "bad source port");
  }
  if (next_token(rest) != "->") {
    return set_error(error, "expected '->'");
  }
  if (!parse_addr(next_token(rest), &rule->dst_ip)) {
    return set_error(error, "bad destination address");
  }
  if (!parse_port(next_token(rest), &rule->dst_port)) {
    return set_error(error, "bad destination port");
  }
  return true;
}

bool parse_options(std::string_view body, SnortRule* rule,
                   std::string* error) {
  // body is the text inside ( ... ): semicolon-separated key:value options.
  while (true) {
    body = trim(body);
    if (body.empty()) break;
    const std::size_t semi = body.find(';');
    if (semi == std::string_view::npos) {
      return set_error(error, "option missing ';'");
    }
    const std::string_view option = trim(body.substr(0, semi));
    body.remove_prefix(semi + 1);
    if (option.empty()) continue;

    const std::size_t colon = option.find(':');
    if (colon == std::string_view::npos) {
      // Flag-style option (e.g. "nocase").
      if (option == "nocase") {
        if (rule->contents.empty()) {
          return set_error(error, "nocase without a preceding content");
        }
        rule->contents.back().nocase = true;
      }
      continue;  // unknown flag options tolerated
    }
    const std::string_view key = trim(option.substr(0, colon));
    std::string_view value = trim(option.substr(colon + 1));

    if (key == "content" || key == "msg") {
      if (value.size() < 2 || value.front() != '"' || value.back() != '"') {
        return set_error(error, std::string(key) + " must be quoted");
      }
      value = value.substr(1, value.size() - 2);
      if (key == "content") {
        if (value.empty()) return set_error(error, "empty content");
        if (rule->contents.size() == kMaxSnortContents) {
          return set_error(error, "more than " +
                                      std::to_string(kMaxSnortContents) +
                                      " content options");
        }
        ContentMatch content;
        content.pattern = std::string(value);
        rule->contents.push_back(std::move(content));
      } else {
        rule->msg = std::string(value);
      }
    } else if (key == "sid") {
      if (!parse_u32(value, &rule->sid)) {
        return set_error(error, "bad sid");
      }
    } else if (key == "offset" || key == "depth") {
      // Content modifiers apply to the most recent content option.
      if (rule->contents.empty()) {
        return set_error(error,
                         std::string(key) + " without a preceding content");
      }
      std::uint32_t number = 0;
      if (!parse_u32(value, &number)) {
        return set_error(error, "bad " + std::string(key));
      }
      if (key == "offset") {
        rule->contents.back().offset = number;
      } else {
        if (number == 0) return set_error(error, "depth must be positive");
        rule->contents.back().depth = number;
      }
    } else {
      // Unknown options (rev, classtype, ...) are tolerated and ignored,
      // like Snort does for options it can't use for detection.
    }
  }
  return true;
}


}  // namespace

std::string_view snort_action_name(SnortAction action) noexcept {
  switch (action) {
    case SnortAction::kPass: return "pass";
    case SnortAction::kAlert: return "alert";
    case SnortAction::kLog: return "log";
  }
  return "?";
}

bool SnortRule::header_matches(const net::FiveTuple& tuple) const noexcept {
  if (proto && static_cast<std::uint8_t>(*proto) != tuple.proto) return false;
  if (src_ip && *src_ip != tuple.src_ip) return false;
  if (dst_ip && *dst_ip != tuple.dst_ip) return false;
  if (src_port && *src_port != tuple.src_port) return false;
  if (dst_port && *dst_port != tuple.dst_port) return false;
  return true;
}

std::optional<net::Ipv4Addr> parse_ipv4(std::string_view text) noexcept {
  std::uint32_t value = 0;
  int octets = 0;
  while (octets < 4) {
    std::uint32_t octet = 0;
    const std::size_t dot = text.find('.');
    const std::string_view part =
        dot == std::string_view::npos ? text : text.substr(0, dot);
    if (!parse_u32(part, &octet) || octet > 255) return std::nullopt;
    value = (value << 8) | octet;
    ++octets;
    if (dot == std::string_view::npos) {
      text = {};
      break;
    }
    text.remove_prefix(dot + 1);
  }
  if (octets != 4 || !text.empty()) return std::nullopt;
  return net::Ipv4Addr{value};
}

std::optional<SnortRule> parse_snort_rule(std::string_view line,
                                          std::string* error) {
  SnortRule rule;
  std::string_view rest = trim(line);

  const std::string_view action = next_token(&rest);
  if (action == "pass") {
    rule.action = SnortAction::kPass;
  } else if (action == "alert") {
    rule.action = SnortAction::kAlert;
  } else if (action == "log") {
    rule.action = SnortAction::kLog;
  } else {
    set_error(error, "unknown action '" + std::string(action) + "'");
    return std::nullopt;
  }

  if (!parse_header(&rest, &rule, error)) return std::nullopt;

  rest = trim(rest);
  if (rest.size() < 2 || rest.front() != '(' || rest.back() != ')') {
    set_error(error, "missing option body '(...)'");
    return std::nullopt;
  }
  if (!parse_options(rest.substr(1, rest.size() - 2), &rule, error)) {
    return std::nullopt;
  }
  if (rule.contents.empty()) {
    set_error(error, "rule has no content option");
    return std::nullopt;
  }
  return rule;
}

std::vector<SnortRule> parse_snort_rules(std::string_view text) {
  std::vector<SnortRule> rules;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    const std::string_view line =
        newline == std::string_view::npos ? text : text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::string error;
    auto rule = parse_snort_rule(trimmed, &error);
    if (!rule) {
      throw std::invalid_argument("bad snort rule: " + error + " in '" +
                                  std::string(trimmed) + "'");
    }
    rules.push_back(std::move(*rule));
  }
  return rules;
}

std::vector<SnortRule> default_snort_rules() {
  return parse_snort_rules(R"(
# Alert rules: exploit signatures.
alert tcp any any -> any 80 (content:"cmd.exe"; msg:"win shell probe"; sid:1001;)
alert tcp any any -> any 80 (content:"/etc/passwd"; msg:"path traversal"; sid:1002;)
alert tcp any any -> any any (content:"SELECT"; content:"UNION"; msg:"sql injection"; sid:1003;)
alert tcp any any -> any 80 (content:"ADMIN"; nocase; msg:"admin probe"; sid:1004;)
# Log rules: suspicious but not alert-worthy.
log tcp any any -> any 80 (content:"wget http"; msg:"downloader"; sid:2001;)
log tcp any any -> any any (content:"base64,"; msg:"encoded blob"; sid:2002;)
log tcp any any -> any any (content:"POST /upload"; offset:0; depth:128; msg:"upload"; sid:2003;)
# Pass rule: whitelisted health checks.
pass tcp any any -> any 80 (content:"GET /healthz"; msg:"health check"; sid:3001;)
)");
}

}  // namespace speedybox::nf
