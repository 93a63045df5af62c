#include "nf/aho_corasick.hpp"

#include <algorithm>
#include <cstring>

namespace speedybox::nf {

namespace {

/// ASCII case folding, the translation Snort's `nocase` applies.
constexpr std::uint8_t fold(std::uint8_t byte) noexcept {
  return byte >= 'A' && byte <= 'Z'
             ? static_cast<std::uint8_t>(byte - 'A' + 'a')
             : byte;
}

}  // namespace

void AhoCorasick::add_pattern(std::string_view pattern, std::uint32_t id,
                              bool nocase) {
  if (pattern.empty()) return;
  built_ = false;
  patterns_.push_back({std::string{pattern}, id, nocase});
}

void AhoCorasick::build() {
  if (built_) return;
  // Byte classes over the folded alphabet; an uppercase letter shares its
  // lowercase letter's class.
  classes_.fill(0);
  class_count_ = 1;
  for (const Pattern& pattern : patterns_) {
    for (const char c : pattern.bytes) {
      std::uint8_t& cls = classes_[fold(static_cast<std::uint8_t>(c))];
      if (cls == 0) cls = static_cast<std::uint8_t>(class_count_++);
    }
  }
  for (std::size_t c = 'A'; c <= 'Z'; ++c) {
    classes_[c] = classes_[c - 'A' + 'a'];
  }

  // Trie over classes, one class-wide row per state; kNone marks a missing
  // edge until the BFS below completes the automaton.
  constexpr std::uint32_t kNone = ~0u;
  const std::uint32_t width = class_count_;
  std::vector<std::uint32_t> next(width, kNone);
  std::vector<std::vector<std::uint32_t>> outputs(1);
  for (std::uint32_t p = 0; p < patterns_.size(); ++p) {
    std::uint32_t state = 0;
    for (const char c : patterns_[p].bytes) {
      const std::uint32_t edge =
          state * width + classes_[static_cast<std::uint8_t>(c)];
      if (next[edge] == kNone) {
        next[edge] = static_cast<std::uint32_t>(outputs.size());
        outputs.emplace_back();
        next.resize(next.size() + width, kNone);
      }
      state = next[edge];
    }
    outputs[state].push_back(p);
  }

  // BFS: fail links + goto completion (full automaton, O(1) per input
  // byte). Root's missing edges loop back to root.
  const auto states = static_cast<std::uint32_t>(outputs.size());
  std::vector<std::uint32_t> fail(states, 0);
  std::vector<std::uint32_t> order;
  for (std::uint32_t c = 0; c < width; ++c) {
    if (next[c] == kNone) {
      next[c] = 0;
    } else {
      order.push_back(next[c]);
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t u = order[head];
    const std::uint32_t f = fail[u];
    // Inherit outputs along the fail chain, so longer patterns come first.
    outputs[u].insert(outputs[u].end(), outputs[f].begin(), outputs[f].end());
    for (std::uint32_t c = 0; c < width; ++c) {
      std::uint32_t& v = next[u * width + c];
      if (v == kNone) {
        v = next[f * width + c];
      } else {
        fail[v] = next[f * width + c];
        order.push_back(v);
      }
    }
  }

  // Number accepting states last (root accepts nothing and stays 0),
  // flattening their outputs in that order, then the rows.
  std::vector<std::uint32_t> number(states);
  std::uint32_t plain = 0;
  for (std::uint32_t s = 0; s < states; ++s) {
    if (outputs[s].empty()) number[s] = plain++;
  }
  std::uint32_t accepting = plain;
  output_begin_.assign(1, 0);
  output_list_.clear();
  for (std::uint32_t s = 0; s < states; ++s) {
    if (outputs[s].empty()) continue;
    number[s] = accepting++;
    output_list_.insert(output_list_.end(), outputs[s].begin(),
                        outputs[s].end());
    output_begin_.push_back(static_cast<std::uint32_t>(output_list_.size()));
  }
  delta_.resize(states * width);
  for (std::uint32_t s = 0; s < states; ++s) {
    for (std::uint32_t c = 0; c < width; ++c) {
      delta_[number[s] * width + c] = number[next[s * width + c]] * width;
    }
  }
  accept_offset_ = plain * width;
  built_ = true;
}

template <typename OnHit>
void AhoCorasick::scan(std::span<const std::uint8_t> text,
                       OnHit&& on_hit) const {
  const std::uint32_t* delta = delta_.data();
  const std::uint8_t* classes = classes_.data();
  const std::uint32_t accept = accept_offset_;
  std::uint32_t state = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = delta[state + classes[text[i]]];
    if (state < accept) continue;
    // The folded text matched; a case-sensitive pattern must also match
    // byte for byte. A state's depth bounds its patterns' lengths, so the
    // compared range starts inside the text.
    const std::size_t end = i + 1;
    const std::uint32_t k = (state - accept) / class_count_;
    for (std::uint32_t o = output_begin_[k]; o < output_begin_[k + 1]; ++o) {
      const Pattern& pattern = patterns_[output_list_[o]];
      if (!pattern.nocase &&
          std::memcmp(text.data() + end - pattern.bytes.size(),
                      pattern.bytes.data(), pattern.bytes.size()) != 0) {
        continue;
      }
      if (on_hit(pattern.id, end)) return;
    }
  }
}

void AhoCorasick::match(
    std::span<const std::uint8_t> text,
    const std::function<void(std::uint32_t, std::size_t)>& on_match) const {
  scan(text, [&on_match](std::uint32_t id, std::size_t end) {
    on_match(id, end);
    return false;
  });
}

std::vector<std::uint32_t> AhoCorasick::match_ids(
    std::span<const std::uint8_t> text) const {
  std::vector<std::uint32_t> ids;
  match(text, [&ids](std::uint32_t id, std::size_t) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool AhoCorasick::contains_any(std::span<const std::uint8_t> text) const {
  bool found = false;
  scan(text, [&found](std::uint32_t, std::size_t) { return found = true; });
  return found;
}

}  // namespace speedybox::nf
