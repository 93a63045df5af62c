// FlowTable unit tests: control-byte probing semantics, slab record
// stability, incremental resize draining, statistics, and the pre-hashed
// key path (DESIGN.md §13).
#include "core/flow_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/five_tuple.hpp"

namespace speedybox::core {
namespace {

net::FiveTuple tuple_n(std::uint32_t n) {
  return net::FiveTuple{net::Ipv4Addr{0x0a000001u + n},
                        net::Ipv4Addr{0xc0a80001u},
                        static_cast<std::uint16_t>(1000 + (n % 50000)),
                        static_cast<std::uint16_t>(80), 17};
}

TEST(FlowTableTest, InsertFindErase) {
  FlowTable<net::FiveTuple, std::uint64_t> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(tuple_n(1)), nullptr);

  auto [value, inserted] = table.try_emplace(tuple_n(1), 41u);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*value, 41u);
  EXPECT_EQ(table.size(), 1u);

  auto [again, inserted_again] = table.try_emplace(tuple_n(1), 99u);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 41u);
  EXPECT_EQ(again, value);

  const std::uint64_t* found = table.find(tuple_n(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 41u);

  EXPECT_TRUE(table.erase(tuple_n(1)));
  EXPECT_FALSE(table.erase(tuple_n(1)));
  EXPECT_EQ(table.find(tuple_n(1)), nullptr);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTableTest, PreHashedOpsMatchHashingOps) {
  FlowTable<net::FiveTuple, int> table;
  const auto key = HashedTuple::of(tuple_n(7));
  table.try_emplace(key.tuple, key.hash, 3);
  EXPECT_NE(table.find(key.tuple), nullptr);
  EXPECT_NE(table.find(key.tuple, key.hash), nullptr);
  EXPECT_EQ(*table.find(key.tuple, key.hash), 3);
  EXPECT_TRUE(table.erase(key.tuple, key.hash));
  EXPECT_EQ(table.find(key.tuple), nullptr);
}

TEST(FlowTableTest, ValuePointersSurviveResize) {
  // The NF contract: recorded state-function closures capture raw pointers
  // to per-flow state. Slab records must never move, across any number of
  // resizes.
  FlowTable<net::FiveTuple, std::uint64_t> table;
  std::vector<std::uint64_t*> pointers;
  constexpr std::uint32_t kFlows = 5000;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    pointers.push_back(table.try_emplace(tuple_n(n), std::uint64_t{n}).first);
  }
  EXPECT_GT(table.stats().resizes, 0u);
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    EXPECT_EQ(table.find(tuple_n(n)), pointers[n]) << n;
    EXPECT_EQ(*pointers[n], n);
  }
}

TEST(FlowTableTest, IncrementalResizeKeepsDrainingTableVisible) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  // Fill to just past a growth trigger, then verify every key is visible
  // while old_ is still draining (stats().resizing true) and after.
  std::uint32_t n = 0;
  while (!table.stats().resizing) {
    table.try_emplace(tuple_n(n), n);
    ++n;
  }
  ASSERT_TRUE(table.stats().resizing);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t* v = table.find(tuple_n(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  // Mutations retire the drain in bounded steps.
  const std::uint64_t steps_before = table.stats().resize_steps;
  while (table.stats().resizing) {
    table.try_emplace(tuple_n(n), n);
    ++n;
  }
  EXPECT_GT(table.stats().resize_steps, steps_before);
  EXPECT_GT(table.stats().migrated_entries, 0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_NE(table.find(tuple_n(i)), nullptr) << i;
  }
}

TEST(FlowTableTest, EraseDuringDrainAndReinsert) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  std::uint32_t n = 0;
  while (!table.stats().resizing) table.try_emplace(tuple_n(n), n), ++n;
  // Erase keys that are still in the draining table, then re-insert them.
  for (std::uint32_t i = 0; i < n; i += 2) EXPECT_TRUE(table.erase(tuple_n(i)));
  for (std::uint32_t i = 0; i < n; i += 2) {
    EXPECT_EQ(table.find(tuple_n(i)), nullptr);
    EXPECT_TRUE(table.try_emplace(tuple_n(i), i + 1000).second);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t* v = table.find(tuple_n(i));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i % 2 == 0 ? i + 1000 : i);
  }
}

TEST(FlowTableTest, ChurnPurgesTombstonesWithoutUnboundedGrowth) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  // Steady-state churn: insert/erase pairs keep the live count tiny; the
  // occupancy trigger must purge tombstones instead of growing forever.
  for (std::uint32_t round = 0; round < 50000; ++round) {
    table.try_emplace(tuple_n(round), round);
    table.erase(tuple_n(round));
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LE(table.stats().capacity, 4096u);
}

TEST(FlowTableTest, ForEachVisitsEveryEntryOnceIncludingDraining) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  std::uint32_t n = 0;
  while (!table.stats().resizing) table.try_emplace(tuple_n(n), n), ++n;
  ASSERT_TRUE(table.stats().resizing);
  std::vector<bool> seen(n, false);
  table.for_each([&](const net::FiveTuple&, std::uint32_t& value) {
    ASSERT_LT(value, n);
    EXPECT_FALSE(seen[value]);
    seen[value] = true;
  });
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_TRUE(seen[i]) << i;
  const auto& const_table = table;
  std::size_t count = 0;
  const_table.for_each(
      [&](const net::FiveTuple&, const std::uint32_t&) { ++count; });
  EXPECT_EQ(count, table.size());
}

TEST(FlowTableTest, NonTrivialValuesDestroyedExactlyOnce) {
  struct Tracked {
    std::shared_ptr<int> token;
  };
  auto token = std::make_shared<int>(7);
  {
    FlowTable<net::FiveTuple, Tracked> table;
    for (std::uint32_t n = 0; n < 300; ++n) {
      table.try_emplace(tuple_n(n), Tracked{token});
    }
    EXPECT_EQ(token.use_count(), 301);
    for (std::uint32_t n = 0; n < 300; n += 3) table.erase(tuple_n(n));
    EXPECT_EQ(token.use_count(), 201);
    table.clear();
    EXPECT_EQ(token.use_count(), 1);
    for (std::uint32_t n = 0; n < 100; ++n) {
      table.try_emplace(tuple_n(n), Tracked{token});
    }
    EXPECT_EQ(token.use_count(), 101);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(FlowTableTest, IntegralKeysUseMixedHash) {
  FlowTable<std::uint32_t, std::string> table;
  for (std::uint32_t fid = 0; fid < 2000; ++fid) {
    table.try_emplace(fid, std::to_string(fid));
  }
  EXPECT_EQ(table.size(), 2000u);
  for (std::uint32_t fid = 0; fid < 2000; ++fid) {
    const std::string* v = table.find(fid);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, std::to_string(fid));
  }
  // Sequential keys through mix64 must not degenerate into long probes.
  EXPECT_LT(table.stats().avg_probe(), 4.0);
}

TEST(FlowTableTest, ReservePreventsResizes) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  table.reserve(10000);
  for (std::uint32_t n = 0; n < 10000; ++n) table.try_emplace(tuple_n(n), n);
  EXPECT_EQ(table.stats().resizes, 0u);
  EXPECT_EQ(table.size(), 10000u);
}

TEST(FlowTableTest, StatsTrackOccupancyProbesAndSlab) {
  FlowTable<net::FiveTuple, std::uint64_t> table;
  for (std::uint32_t n = 0; n < 1000; ++n) table.try_emplace(tuple_n(n), n);
  for (std::uint32_t n = 0; n < 1000; ++n) table.find(tuple_n(n));
  const FlowTableStats stats = table.stats();
  EXPECT_EQ(stats.entries, 1000u);
  EXPECT_GE(stats.capacity, 1000u);
  EXPECT_GE(stats.lookups, 2000u);
  EXPECT_GE(stats.probe_total, stats.lookups);
  EXPECT_GE(stats.max_probe, 1u);
  EXPECT_EQ(stats.slab_records, 1000u);
  EXPECT_GE(stats.slab_bytes, 1000u * sizeof(std::uint64_t));
  EXPECT_GT(stats.load_factor(), 0.0);
  EXPECT_LE(stats.load_factor(), 0.875 + 1e-9);

  FlowTableStats merged;
  merged.merge_from(stats);
  merged.merge_from(stats);
  EXPECT_EQ(merged.entries, 2000u);
  EXPECT_EQ(merged.max_probe, stats.max_probe);
}

TEST(FlowTableTest, TryEmplaceReturnsTheExistingValue) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  const auto [first, inserted] = table.try_emplace(tuple_n(1), 5u);
  EXPECT_TRUE(inserted);
  const auto [again, reinserted] = table.try_emplace(tuple_n(1), 9u);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(*table.find(tuple_n(1)), 5u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, MoveTransfersEntries) {
  FlowTable<net::FiveTuple, std::uint32_t> table;
  for (std::uint32_t n = 0; n < 100; ++n) table.try_emplace(tuple_n(n), n);
  FlowTable<net::FiveTuple, std::uint32_t> moved = std::move(table);
  EXPECT_EQ(moved.size(), 100u);
  ASSERT_NE(moved.find(tuple_n(5)), nullptr);
  EXPECT_EQ(*moved.find(tuple_n(5)), 5u);
}

TEST(FlowTableTest, EraseBeforeAnEmptySlotLeavesNoTombstone) {
  FlowTable<std::uint32_t, int> table;
  table.try_emplace(7u, 1);
  EXPECT_TRUE(table.erase(7u));
  EXPECT_EQ(table.stats().tombstones, 0u);
  EXPECT_EQ(table.find(7u), nullptr);
}

/// Keys land at their own value's slot (tag 0), so a test can lay out a
/// probe cluster by hand.
struct SlotKeyOps {
  static std::uint64_t hash(std::uint32_t key) noexcept {
    return static_cast<std::uint64_t>(key) << 7;
  }
  static bool equal(std::uint32_t a, std::uint32_t b) noexcept {
    return a == b;
  }
};

TEST(FlowTableTest, EraseAtAClusterEndClearsTheTombstonesBeforeIt) {
  FlowTable<std::uint32_t, int, SlotKeyOps> table;
  // 3, 19 and 35 share home slot 3 of the 16-slot table: slots 3, 4, 5.
  for (const std::uint32_t key : {3u, 19u, 35u}) table.try_emplace(key, 1);
  ASSERT_EQ(table.stats().capacity, 16u);

  EXPECT_TRUE(table.erase(19u));  // slot 5 still follows: a tombstone
  EXPECT_EQ(table.stats().tombstones, 1u);
  EXPECT_NE(table.find(35u), nullptr) << "the probe must cross slot 4";

  EXPECT_TRUE(table.erase(35u));  // slot 6 is empty: 5 and 4 empty again
  EXPECT_EQ(table.stats().tombstones, 0u);
  EXPECT_NE(table.find(3u), nullptr);
  EXPECT_EQ(table.find(19u), nullptr);
  EXPECT_EQ(table.find(35u), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

}  // namespace
}  // namespace speedybox::core
