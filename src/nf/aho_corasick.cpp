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

/// The interleaved walk's stripe count: four named state chains are enough
/// to overlap the table loads and still fit in registers at -O2.
constexpr std::size_t kStripes = 4;
/// A text is interleaved once each stripe's share is at least this many
/// longest patterns, so the warm-up walks add at most a quarter.
constexpr std::size_t kMinShare = 4;
/// Accepting states each stripe buffers for the in-order replay. When one
/// stripe's buffer fills, the lockstep stops and every stripe finishes its
/// share on its own from the state it reached.
constexpr std::size_t kHitBuffer = 64;

/// An accepting state a stripe reached, and the step that reached it.
struct StripeHit {
  std::size_t state;
  std::size_t step;
};

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
  longest_ = 0;
  for (const Pattern& pattern : patterns_) {
    longest_ = std::max(longest_, pattern.bytes.size());
  }
  built_ = true;
}

template <typename OnHit>
bool AhoCorasick::report(std::span<const std::uint8_t> text,
                         std::size_t state, std::size_t end,
                         OnHit& on_hit) const {
  // The folded text matched; a case-sensitive pattern must also match
  // byte for byte. A state's depth bounds its patterns' lengths, and every
  // state was reached from the root within the text, so the compared
  // range starts inside the text.
  const std::uint32_t k =
      static_cast<std::uint32_t>(state - accept_offset_) / class_count_;
  for (std::uint32_t o = output_begin_[k]; o < output_begin_[k + 1]; ++o) {
    const Pattern& pattern = patterns_[output_list_[o]];
    if (!pattern.nocase &&
        std::memcmp(text.data() + end - pattern.bytes.size(),
                    pattern.bytes.data(), pattern.bytes.size()) != 0) {
      continue;
    }
    if (on_hit(pattern.id, end)) return true;
  }
  return false;
}

template <typename OnHit>
bool AhoCorasick::walk(std::span<const std::uint8_t> text,
                       std::size_t state, std::size_t from,
                       std::size_t own, std::size_t to,
                       OnHit& on_hit) const {
  const std::uint32_t* const delta = delta_.data();
  const std::uint8_t* const classes = classes_.data();
  const std::uint32_t accept = accept_offset_;
  for (; from < own; ++from) state = delta[state + classes[text[from]]];
  for (; from < to; ++from) {
    state = delta[state + classes[text[from]]];
    if (state >= accept && report(text, state, from + 1, on_hit)) {
      return true;
    }
  }
  return false;
}

template <typename OnHit>
void AhoCorasick::scan(std::span<const std::uint8_t> text,
                       OnHit&& on_hit) const {
  const std::size_t n = text.size();
  if (longest_ == 0 || n < kStripes * kMinShare * longest_) {
    walk(text, 0, 0, 0, n, on_hit);
    return;
  }
  // Stripe k walks text[k * stride, k * stride + steps). Past the first,
  // it owns the occurrences that end after k * stride + warmup, where
  // stripe k - 1's walk stops; the last stripe also takes the < kStripes
  // tail bytes.
  const std::size_t warmup = longest_ - 1;
  const std::size_t steps = (n + (kStripes - 1) * warmup) / kStripes;
  const std::size_t stride = steps - warmup;
  const std::uint8_t* const p0 = text.data();
  const std::uint8_t* const p1 = p0 + stride;
  const std::uint8_t* const p2 = p1 + stride;
  const std::uint8_t* const p3 = p2 + stride;
  const std::uint32_t* const delta = delta_.data();
  const std::uint8_t* const classes = classes_.data();
  const std::uint32_t accept = accept_offset_;

  std::array<std::array<StripeHit, kHitBuffer>, kStripes> hits;
  std::array<std::size_t, kStripes> count{};
  // Wider than a table entry, so indexing with them needs no zero
  // extension.
  std::size_t s0 = 0;
  std::size_t s1 = 0;
  std::size_t s2 = 0;
  std::size_t s3 = 0;
  std::size_t step = 0;
  while (step < steps) {
    // A stripe buffers at most one state a step, so none overflows before
    // `stop`.
    const std::size_t room =
        kHitBuffer - *std::max_element(count.begin(), count.end());
    if (room == 0) break;
    const std::size_t stop = std::min(steps, step + room);
    for (; step < stop; ++step) {
      s0 = delta[s0 + classes[p0[step]]];
      s1 = delta[s1 + classes[p1[step]]];
      s2 = delta[s2 + classes[p2[step]]];
      s3 = delta[s3 + classes[p3[step]]];
      if (s0 >= accept) [[unlikely]] hits[0][count[0]++] = {s0, step + 1};
      if (s1 >= accept) [[unlikely]] hits[1][count[1]++] = {s1, step + 1};
      if (s2 >= accept) [[unlikely]] hits[2][count[2]++] = {s2, step + 1};
      if (s3 >= accept) [[unlikely]] hits[3][count[3]++] = {s3, step + 1};
    }
  }

  // Replay stripe by stripe, each stripe finishing its share on its own
  // past the step the lockstep reached, so hits come out in position
  // order. A hit at or before `own` was a warm-up state's.
  const std::array<std::size_t, kStripes> states{s0, s1, s2, s3};
  for (std::size_t k = 0; k < kStripes; ++k) {
    const std::size_t start = k * stride;
    const std::size_t own = k == 0 ? 0 : start + warmup;
    const std::size_t end = k + 1 == kStripes ? n : start + steps;
    for (std::size_t h = 0; h < count[k]; ++h) {
      const std::size_t hit_end = start + hits[k][h].step;
      if (hit_end > own && report(text, hits[k][h].state, hit_end, on_hit)) {
        return;
      }
    }
    if (walk(text, states[k], start + step, own, end, on_hit)) return;
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
