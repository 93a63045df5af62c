#include "nf/aho_corasick.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace speedybox::nf {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(AhoCorasick, FindsSinglePattern) {
  AhoCorasick ac;
  ac.add_pattern("needle", 1);
  ac.build();
  const std::string hay = "hay needle stack";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)), (std::vector<std::uint32_t>{1}));
}

TEST(AhoCorasick, NoFalsePositive) {
  AhoCorasick ac;
  ac.add_pattern("needle", 1);
  ac.build();
  const std::string hay = "haystack without it; need le";
  EXPECT_TRUE(ac.match_ids(as_bytes(hay)).empty());
  EXPECT_FALSE(ac.contains_any(as_bytes(hay)));
}

TEST(AhoCorasick, OverlappingPatterns) {
  AhoCorasick ac;
  ac.add_pattern("he", 1);
  ac.add_pattern("she", 2);
  ac.add_pattern("hers", 3);
  ac.build();
  const std::string hay = "ushers";
  const auto ids = ac.match_ids(as_bytes(hay));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(AhoCorasick, ReportsEndOffsets) {
  AhoCorasick ac;
  ac.add_pattern("ab", 1);
  ac.build();
  const std::string hay = "abab";
  std::vector<std::size_t> ends;
  ac.match(as_bytes(hay),
           [&](std::uint32_t, std::size_t end) { ends.push_back(end); });
  EXPECT_EQ(ends, (std::vector<std::size_t>{2, 4}));
}

TEST(AhoCorasick, PatternAtStartAndEnd) {
  AhoCorasick ac;
  ac.add_pattern("start", 1);
  ac.add_pattern("end", 2);
  ac.build();
  const std::string hay = "start middle end";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(AhoCorasick, BinaryPatterns) {
  AhoCorasick ac;
  const std::string pattern{"\x00\xFF\x7F", 3};
  ac.add_pattern(pattern, 9);
  ac.build();
  std::string hay = "xx";
  hay += pattern;
  hay += "yy";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)), (std::vector<std::uint32_t>{9}));
}

TEST(AhoCorasick, EmptyTextNoMatches) {
  AhoCorasick ac;
  ac.add_pattern("x", 1);
  ac.build();
  EXPECT_TRUE(ac.match_ids({}).empty());
}

TEST(AhoCorasick, EmptyPatternIgnored) {
  AhoCorasick ac;
  ac.add_pattern("", 1);
  ac.add_pattern("ok", 2);
  ac.build();
  EXPECT_EQ(ac.pattern_count(), 1u);
  EXPECT_EQ(ac.match_ids(as_bytes(std::string{"ok"})),
            (std::vector<std::uint32_t>{2}));
}

TEST(AhoCorasick, DuplicatePatternBothIdsFire) {
  AhoCorasick ac;
  ac.add_pattern("dup", 1);
  ac.add_pattern("dup", 2);
  ac.build();
  EXPECT_EQ(ac.match_ids(as_bytes(std::string{"a dup b"})),
            (std::vector<std::uint32_t>{1, 2}));
}

/// Differential test against a naive multi-pattern scan.
class AhoCorasickProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AhoCorasickProperty, MatchesNaiveSearch) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 50; ++trial) {
    // Small alphabet to force overlaps.
    const auto random_string = [&rng](std::size_t max_len) {
      std::string s(1 + rng.below(max_len), 'a');
      for (auto& c : s) c = static_cast<char>('a' + rng.below(3));
      return s;
    };

    AhoCorasick ac;
    std::vector<std::string> patterns;
    for (std::uint32_t i = 0; i < 6; ++i) {
      patterns.push_back(random_string(5));
      ac.add_pattern(patterns.back(), i);
    }
    ac.build();
    const std::string text = random_string(200);

    std::map<std::uint32_t, int> naive;
    for (std::uint32_t i = 0; i < patterns.size(); ++i) {
      for (std::size_t pos = 0;
           (pos = text.find(patterns[i], pos)) != std::string::npos; ++pos) {
        ++naive[i];
      }
    }
    std::map<std::uint32_t, int> actual;
    ac.match(as_bytes(text),
             [&](std::uint32_t id, std::size_t) { ++actual[id]; });
    ASSERT_EQ(actual, naive) << "trial " << trial;
  }
}

/// Mixed-case differential: half the patterns are `nocase`. The naive scan
/// folds both sides for those only; the alphabet holds the letters' ASCII
/// neighbours and the byte extremes, which folding must leave alone.
TEST_P(AhoCorasickProperty, MixedCaseMatchesNaiveSearch) {
  util::Rng rng{GetParam()};
  const std::string alphabet{"aAbBzZ@[`{\x00\xFF", 12};
  const auto random_string = [&](std::size_t max_len) {
    std::string s(1 + rng.below(max_len), 'a');
    for (auto& c : s) c = alphabet[rng.below(alphabet.size())];
    return s;
  };
  const auto fold = [](std::string s) {
    for (char& c : s) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    AhoCorasick ac;
    std::vector<std::string> patterns;
    for (std::uint32_t i = 0; i < 8; ++i) {
      patterns.push_back(random_string(4));
      ac.add_pattern(patterns.back(), i, /*nocase=*/i % 2 == 1);
    }
    ac.build();
    const std::string text = random_string(300);
    const std::string folded_text = fold(text);

    // (end, id), end-major like the automaton's report order.
    std::vector<std::pair<std::size_t, std::uint32_t>> naive;
    for (std::size_t end = 1; end <= text.size(); ++end) {
      for (std::uint32_t i = 0; i < patterns.size(); ++i) {
        const bool nocase = i % 2 == 1;
        const std::string pattern = nocase ? fold(patterns[i]) : patterns[i];
        if (pattern.size() > end) continue;
        const std::string& hay = nocase ? folded_text : text;
        if (hay.compare(end - pattern.size(), pattern.size(), pattern) == 0) {
          naive.emplace_back(end, i);
        }
      }
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> actual;
    ac.match(as_bytes(text), [&](std::uint32_t id, std::size_t end) {
      actual.emplace_back(end, id);
    });
    ASSERT_TRUE(std::is_sorted(
        actual.begin(), actual.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }))
        << "trial " << trial << ": not in position order";
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, naive) << "trial " << trial;

    // contains_any on every prefix: false until the first match ends.
    const std::size_t first_end =
        naive.empty() ? text.size() + 1 : naive.front().first;
    for (std::size_t n = 0; n <= text.size(); ++n) {
      ASSERT_EQ(ac.contains_any(as_bytes(text).first(n)), first_end <= n)
          << "trial " << trial << ", prefix " << n;
    }
  }
}

/// Every (end, id) in the automaton's report order: ends ascending, and at
/// one end longer patterns first, then lower ids. Pattern i has id i; a
/// `nocase` pattern compares ASCII-folded.
using Hits = std::vector<std::pair<std::size_t, std::uint32_t>>;

Hits naive_hits(const std::string& text,
                const std::vector<std::string>& patterns,
                const std::vector<bool>& nocase) {
  const auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  std::vector<std::uint32_t> order(patterns.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return patterns[a].size() > patterns[b].size();
  });
  Hits hits;
  for (std::size_t end = 1; end <= text.size(); ++end) {
    for (const std::uint32_t i : order) {
      const std::string& pattern = patterns[i];
      if (pattern.size() > end) continue;
      const std::size_t start = end - pattern.size();
      bool same = true;
      for (std::size_t k = 0; same && k < pattern.size(); ++k) {
        same = nocase[i] ? fold(text[start + k]) == fold(pattern[k])
                         : text[start + k] == pattern[k];
      }
      if (same) hits.emplace_back(end, i);
    }
  }
  return hits;
}

Hits automaton_hits(const AhoCorasick& ac, const std::string& text) {
  Hits hits;
  ac.match(as_bytes(text), [&hits](std::uint32_t id, std::size_t end) {
    hits.emplace_back(end, id);
  });
  return hits;
}

/// Texts of up to 4 KB take the interleaved walk, whose four stripes meet
/// within a pattern length of the quarter marks. On lowercase filler the
/// longest pattern is planted to end at every byte near each quarter mark,
/// one offset per text, with other patterns in the first and last bytes;
/// lengths cover every residue mod 4. Plants of `nocase` patterns take
/// random capitalization, and a quarter of the case-sensitive plants have
/// one letter's case flipped, which only the confirm rejects. Then dense
/// texts, a hit at nearly every byte, overflow the per-stripe hit buffers,
/// with a longest pattern of 100 bytes so they overflow during the
/// stripes' warm-up walks as well. Every (id, end) is compared in order
/// with the naive scan, and contains_any on every prefix of some texts.
TEST_P(AhoCorasickProperty, LongTextsMatchNaiveSearchInOrder) {
  util::Rng rng{GetParam()};
  const auto flip_case = [](char& c) { c = static_cast<char>(c ^ 0x20); };
  const auto letters = [&](std::size_t n, bool mixed_case) {
    std::string s(n, 'a');
    for (char& c : s) {
      c = static_cast<char>('a' + rng.below(26));
      if (mixed_case && rng.chance(0.5)) flip_case(c);
    }
    return s;
  };
  const auto check = [&](const AhoCorasick& ac, const std::string& text,
                         const std::vector<std::string>& patterns,
                         const std::vector<bool>& nocase,
                         bool every_prefix) {
    const Hits expected = naive_hits(text, patterns, nocase);
    ASSERT_EQ(automaton_hits(ac, text), expected);
    if (!every_prefix) return;
    const std::size_t first_end =
        expected.empty() ? text.size() + 1 : expected.front().first;
    for (std::size_t n = 0; n <= text.size(); ++n) {
      ASSERT_EQ(ac.contains_any(as_bytes(text).first(n)), first_end <= n)
          << "prefix " << n;
    }
  };

  for (int trial = 0; trial < 3; ++trial) {
    // Six mixed-case patterns of 1-16 letters, odd ids `nocase`; pattern 0
    // is the longest.
    const std::size_t longest = 8 + rng.below(9);
    std::vector<std::string> patterns;
    std::vector<bool> nocase;
    AhoCorasick ac;
    for (std::uint32_t i = 0; i < 6; ++i) {
      patterns.push_back(letters(i == 0 ? longest : 1 + rng.below(longest),
                                 /*mixed_case=*/true));
      nocase.push_back(i % 2 == 1);
      ac.add_pattern(patterns.back(), i, nocase.back());
    }
    ac.build();
    const auto plant = [&](std::string& text, std::uint32_t i,
                           std::size_t end) {
      if (end < patterns[i].size() || end > text.size()) return;
      std::string bytes = patterns[i];
      if (nocase[i]) {
        for (char& c : bytes) {
          if (rng.chance(0.5)) flip_case(c);
        }
      } else if (rng.chance(0.25)) {
        flip_case(bytes[rng.below(bytes.size())]);
      }
      text.replace(end - bytes.size(), bytes.size(), bytes);
    };

    const std::size_t sizes[] = {4096 - static_cast<std::size_t>(trial),
                                 4093 + rng.below(4), rng.below(4097),
                                 rng.below(1025)};
    const auto reach = static_cast<std::ptrdiff_t>(longest) + 2;
    for (const std::size_t n : sizes) {
      for (std::ptrdiff_t d = -reach; d <= reach; ++d) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << ", length "
                                          << n << ", offset " << d);
        std::string text = letters(n, /*mixed_case=*/false);
        for (const std::size_t quarter : {n / 4, n / 2, 3 * n / 4}) {
          if (static_cast<std::ptrdiff_t>(quarter) + d < 0) continue;
          plant(text, 0, static_cast<std::size_t>(quarter + d));
        }
        plant(text, static_cast<std::uint32_t>(rng.below(6)),
              patterns[0].size());
        plant(text, static_cast<std::uint32_t>(rng.below(6)), n);
        check(ac, text, patterns, nocase, /*every_prefix=*/d == 0);
      }
    }
  }

  // Dense: a hit at nearly every byte of 'a'/'A' text.
  const std::vector<std::string> dense{"a", "aA", "aaa", std::string(100, 'a')};
  const std::vector<bool> dense_nocase{true, false, true, true};
  AhoCorasick ac;
  for (std::uint32_t i = 0; i < dense.size(); ++i) {
    ac.add_pattern(dense[i], i, dense_nocase[i]);
  }
  ac.build();
  for (const std::size_t n : {4096 - rng.below(4), 1600 + rng.below(400)}) {
    SCOPED_TRACE(::testing::Message() << "dense, length " << n);
    std::string text(n, 'a');
    for (char& c : text) {
      if (rng.chance(0.3)) c = 'A';
    }
    check(ac, text, dense, dense_nocase, /*every_prefix=*/n < 4000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickProperty,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
}  // namespace speedybox::nf
