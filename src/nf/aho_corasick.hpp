// Aho–Corasick multi-pattern matcher: the payload-inspection engine behind
// our Snort-like IDS. Matches all occurrences of every pattern in a single
// pass over the payload — the same algorithmic family Snort's detection
// engine uses for content rules.
//
// build() compiles every pattern, `nocase` or not, into one DFA over
// case-folded bytes, as Snort 2.x searches text through its `xlatcase`
// table: bytes map to classes, and one flat table of class-wide rows holds
// pre-multiplied row offsets with accepting states numbered last, so a
// payload byte costs one table load and one compare. A case-sensitive
// pattern is reported only after a memcmp of its exact bytes at the hit.
//
// Each byte's table load waits for the previous byte's state, so a long
// payload is walked as four contiguous stripes in lockstep, four
// independent state chains whose loads overlap. Every stripe after the
// first starts from the root (longest pattern - 1) bytes before its share,
// which puts it in the true state for every occurrence it owns.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace speedybox::nf {

class AhoCorasick {
 public:
  AhoCorasick() = default;

  /// Register a pattern with a caller-chosen id; `nocase` matches it in any
  /// ASCII capitalization. Must be called before build(); empty patterns
  /// are ignored.
  void add_pattern(std::string_view pattern, std::uint32_t id,
                   bool nocase = false);

  /// Compile the transition table. Idempotent. Must be called after the
  /// last add_pattern() and before any match query.
  void build();

  /// Invoke on_match(pattern_id, end_offset) for every occurrence, in
  /// position order.
  void match(std::span<const std::uint8_t> text,
             const std::function<void(std::uint32_t, std::size_t)>& on_match)
      const;

  /// Convenience: ids of all patterns occurring at least once, ascending,
  /// deduplicated.
  std::vector<std::uint32_t> match_ids(
      std::span<const std::uint8_t> text) const;

  bool contains_any(std::span<const std::uint8_t> text) const;

  std::size_t pattern_count() const noexcept { return patterns_.size(); }
  bool built() const noexcept { return built_; }

 private:
  struct Pattern {
    std::string bytes;
    std::uint32_t id = 0;
    bool nocase = false;
  };

  /// Walk `text`, calling on_hit(pattern, end) for every confirmed
  /// occurrence, in position order, until it returns true.
  template <typename OnHit>
  void scan(std::span<const std::uint8_t> text, OnHit&& on_hit) const;

  /// Walk text[from, to) starting in `state`, reporting the occurrences that
  /// end past `own`. True once on_hit asked to stop.
  template <typename OnHit>
  bool walk(std::span<const std::uint8_t> text, std::size_t state,
            std::size_t from, std::size_t own, std::size_t to,
            OnHit& on_hit) const;

  /// Confirm and report the patterns of accepting `state` at `end`. True
  /// once on_hit asked to stop.
  template <typename OnHit>
  bool report(std::span<const std::uint8_t> text, std::size_t state,
              std::size_t end, OnHit& on_hit) const;

  std::vector<Pattern> patterns_;
  /// Byte -> class of its folded form; 0 when no pattern contains it.
  std::array<std::uint8_t, 256> classes_{};
  std::uint32_t class_count_ = 1;
  /// delta_[state_offset + class] = next state's offset, where a state's
  /// offset is its number times class_count_. Root is offset 0; the
  /// one-state table keeps an unbuilt or empty matcher scannable.
  std::vector<std::uint32_t> delta_{0};
  /// States at or past this offset are accepting.
  std::uint32_t accept_offset_ = 1;
  /// Accepting state k's patterns (indices into patterns_) are
  /// output_list_[output_begin_[k], output_begin_[k + 1]), longest first.
  std::vector<std::uint32_t> output_begin_;
  std::vector<std::uint32_t> output_list_;
  /// Length of the longest pattern; 0 when there is none.
  std::size_t longest_ = 0;
  bool built_ = false;
};

}  // namespace speedybox::nf
