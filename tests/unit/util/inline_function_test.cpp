#include "util/inline_function.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

namespace speedybox::util {
namespace {

using Counter = InlineFunction<int(int)>;

static_assert(std::is_trivially_copyable_v<Counter>);
static_assert(std::is_trivially_destructible_v<Counter>);

// The capture rule, as a trait: what owns memory or does not fit the
// capacity cannot construct the callable.
static_assert(!std::is_constructible_v<
              Counter, decltype([v = std::vector<int>{}](int x) {
                return x + static_cast<int>(v.size());
              })>);
static_assert(!std::is_constructible_v<
              Counter, decltype([s = std::string{}](int x) {
                return x + static_cast<int>(s.size());
              })>);
static_assert(!std::is_constructible_v<
              Counter, decltype([a = std::array<std::uint64_t, 5>{}](int x) {
                return x + static_cast<int>(a[0]);
              })>);
static_assert(std::is_constructible_v<
              Counter, decltype([a = std::array<std::uint64_t, 4>{}](int x) {
                return x + static_cast<int>(a[0]);
              })>);
// A callable with the wrong signature does not convert either.
static_assert(!std::is_constructible_v<Counter, decltype([] {})>);

TEST(InlineFunction, ACopyRunsTheSameCallable) {
  int calls = 0;
  const int offset = 40;
  Counter original = [&calls, offset](int x) {
    ++calls;
    return x + offset;
  };
  const Counter copy = original;
  original = {};
  EXPECT_FALSE(original);
  ASSERT_TRUE(copy);
  EXPECT_EQ(copy(2), 42);
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, AnEmptyOneTestsFalse) {
  const Counter empty;
  EXPECT_FALSE(empty);
  const Counter held = [](int x) { return x; };
  EXPECT_TRUE(held);
}

TEST(InlineFunction, HoldsAFunctionPointer) {
  int (*twice)(int) = [](int x) { return 2 * x; };
  const Counter held = twice;
  EXPECT_EQ(held(21), 42);
}

}  // namespace
}  // namespace speedybox::util
