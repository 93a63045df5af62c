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

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickProperty,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
}  // namespace speedybox::nf
