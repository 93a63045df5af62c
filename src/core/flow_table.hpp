// FlowTable (DESIGN.md §13): the million-flow state engine behind every
// per-flow hash table on the hot path — the classifier's tuple→FID map,
// each NF's typed per-flow state, the pipeline's flow phases, and
// ChainRunner's original-mode tagging set. (The Global MAT needs none: its
// flow records sit at their dense FIDs' slots.)
//
// Why not std::unordered_map: at production flow counts the data path is
// bounded by pointer-chasing cache misses (one heap node per entry, a
// bucket array of pointers), not by NF work. FlowTable replaces that with
//
//   * flat control-byte probing: one byte of hash metadata per slot in a
//     contiguous array, so a lookup touches one ctrl cache line and (on a
//     hit) one slot line — no node chasing, and 7-bit tag compares reject
//     almost every non-matching slot without reading its key;
//   * pre-hashed keys: FiveTuple hashes are computed once per packet and
//     passed through every table call, so the chain never re-hashes a
//     tuple it already hashed;
//   * slab-allocated records: values live in fixed-size slab chunks that
//     never move, so recorded state-function closures can capture value
//     pointers across resizes (the same pointer-stability contract
//     unordered_map nodes gave the NFs), and a record's byte image is a
//     straight memcpy for migration export/import;
//   * incremental resize: growth drains the old slot array a few slots per
//     mutation instead of rehashing everything at once, so the autoscale
//     migration path never sees a stop-the-world rehash pause spike p99.
//
// The array+hash hybrid layout (dense flat arrays for the common case, a
// draining secondary during growth) follows the ArrayWithHash technique;
// the control-byte probing is the SwissTable scheme, scalar-probed so it
// stays portable.
//
// Concurrency: a FlowTable has exactly one owner, like the maps it
// replaces — per-shard under the sharded runtime's single-writer contract,
// or guarded by a mutex where several cores reach it: the owning NF's
// (MaglevLb, DosPrevention), whose event lambdas run on the manager core.
// Lookups update probe-length statistics, so even const reads are
// owner-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/five_tuple.hpp"
#include "util/hash.hpp"
#include "util/prefetch.hpp"

namespace speedybox::core {

/// Point-in-time counters of one table (or a merge across several): sizing,
/// probe behavior and slab footprint — the telemetry surface (DESIGN.md
/// §13) and what bench_flowtable gates.
struct FlowTableStats {
  std::size_t entries = 0;
  std::size_t capacity = 0;    // live + draining slot arrays
  std::size_t tombstones = 0;
  bool resizing = false;       // a resize is currently draining
  std::uint64_t resizes = 0;          // growth/purge transitions started
  std::uint64_t resize_steps = 0;     // bounded drain quanta executed
  std::uint64_t migrated_entries = 0; // entries moved by the drain
  std::uint64_t lookups = 0;
  std::uint64_t probe_total = 0;      // slots visited across all lookups
  std::uint64_t max_probe = 0;        // longest single probe sequence
  std::size_t slab_bytes = 0;         // reserved record storage
  std::size_t slab_records = 0;       // live records

  void merge_from(const FlowTableStats& other) {
    entries += other.entries;
    capacity += other.capacity;
    tombstones += other.tombstones;
    resizing = resizing || other.resizing;
    resizes += other.resizes;
    resize_steps += other.resize_steps;
    migrated_entries += other.migrated_entries;
    lookups += other.lookups;
    probe_total += other.probe_total;
    max_probe = max_probe > other.max_probe ? max_probe : other.max_probe;
    slab_bytes += other.slab_bytes;
    slab_records += other.slab_records;
  }

  double load_factor() const noexcept {
    return capacity == 0 ? 0.0
                         : static_cast<double>(entries) /
                               static_cast<double>(capacity);
  }
  double avg_probe() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(probe_total) /
                              static_cast<double>(lookups);
  }
};

/// Slab allocator for fixed-size per-flow records. Chunked storage: record
/// addresses are stable for the record's whole life (chunks are never
/// reallocated), freed indices are recycled LIFO — the most recently freed
/// first, else the next never-used one — and every allocation is
/// zero-filled first so the padding bytes of a record struct are
/// deterministic — which is what lets migration export serialize a record
/// as a raw memcpy of its slab bytes.
class SlabArena {
 public:
  static constexpr std::size_t kRecordsPerChunk = 1024;

  explicit SlabArena(std::size_t record_size) noexcept;

  SlabArena(SlabArena&&) noexcept = default;
  SlabArena& operator=(SlabArena&&) noexcept = default;

  /// Index of a zero-filled, uninitialized record slot.
  std::uint32_t allocate();
  /// Return a record slot to the free list. The caller has already ended
  /// the record's lifetime (trivial records need nothing).
  void release(std::uint32_t index) noexcept;

  std::byte* data(std::uint32_t index) noexcept {
    return chunks_[index / kRecordsPerChunk].get() +
           static_cast<std::size_t>(index % kRecordsPerChunk) * record_size_;
  }
  const std::byte* data(std::uint32_t index) const noexcept {
    return chunks_[index / kRecordsPerChunk].get() +
           static_cast<std::size_t>(index % kRecordsPerChunk) * record_size_;
  }

  /// Whether `index` names an allocated, not yet released record.
  bool in_use(std::uint32_t index) const noexcept {
    return index < in_use_.size() && in_use_[index];
  }

  std::size_t record_size() const noexcept { return record_size_; }
  std::size_t live_records() const noexcept { return live_; }
  std::size_t capacity_bytes() const noexcept {
    return chunks_.size() * kRecordsPerChunk * record_size_;
  }

  /// Drop every chunk. Caller has already ended all record lifetimes.
  void clear() noexcept;

 private:
  std::size_t record_size_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<bool> in_use_;  // one bit per carved record
  std::size_t live_ = 0;
};

/// Key policy: how FlowTable hashes and compares keys. The default covers
/// the two key shapes the data path uses — FiveTuple (its own mixed hash,
/// the one the classifier computes once per packet) and integral keys
/// (FIDs, NAT external ports) through a full-avalanche mix.
template <class Key>
struct FlowKeyOps {
  static std::uint64_t hash(const Key& key) noexcept {
    if constexpr (std::is_integral_v<Key>) {
      return util::mix64(static_cast<std::uint64_t>(key));
    } else {
      return key.hash();
    }
  }
  static bool equal(const Key& a, const Key& b) noexcept { return a == b; }
};

/// A precomputed key hash. A distinct aggregate rather than a bare
/// std::uint64_t so the pre-hashed table overloads can never be selected
/// by accident when the first *value* argument happens to be an integer —
/// an integer only becomes a FlowHash through an explicit brace init.
struct FlowHash {
  std::uint64_t value = 0;
};

/// A FiveTuple with its hash computed exactly once — the handle an NF
/// builds per packet and reuses across every table operation it performs
/// for that packet (find, emplace, erase), and that the pre-hashed
/// find/erase overloads accept.
struct HashedTuple {
  net::FiveTuple tuple;
  FlowHash hash;

  static HashedTuple of(const net::FiveTuple& tuple) noexcept {
    return {tuple, FlowHash{tuple.hash()}};
  }
};

template <class Key, class Value, class Ops = FlowKeyOps<Key>>
class FlowTable {
  static_assert(std::is_trivially_copyable_v<Key>,
                "FlowTable keys are stored flat and moved during resize");

 public:
  FlowTable() : arena_(sizeof(Value)) {}
  explicit FlowTable(std::size_t expected_entries) : FlowTable() {
    reserve(expected_entries);
  }
  ~FlowTable() { clear(); }

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  FlowTable(FlowTable&& other) noexcept
      : live_(std::move(other.live_)),
        old_(std::move(other.old_)),
        drain_cursor_(other.drain_cursor_),
        arena_(std::move(other.arena_)),
        resizes_(other.resizes_),
        resize_steps_(other.resize_steps_),
        migrated_entries_(other.migrated_entries_),
        lookups_(other.lookups_),
        probe_total_(other.probe_total_),
        max_probe_(other.max_probe_) {
    other.live_ = Table{};
    other.old_ = Table{};
  }
  FlowTable& operator=(FlowTable&& other) noexcept {
    if (this != &other) {
      clear();
      live_ = std::move(other.live_);
      old_ = std::move(other.old_);
      drain_cursor_ = other.drain_cursor_;
      arena_ = std::move(other.arena_);
      resizes_ = other.resizes_;
      resize_steps_ = other.resize_steps_;
      migrated_entries_ = other.migrated_entries_;
      lookups_ = other.lookups_;
      probe_total_ = other.probe_total_;
      max_probe_ = other.max_probe_;
      other.live_ = Table{};
      other.old_ = Table{};
    }
    return *this;
  }

  // --- lookup ------------------------------------------------------------

  Value* find(const Key& key) { return find(key, FlowHash{Ops::hash(key)}); }
  const Value* find(const Key& key) const {
    return find(key, FlowHash{Ops::hash(key)});
  }

  Value* find(const Key& key, FlowHash hash) {
    return const_cast<Value*>(std::as_const(*this).find(key, hash));
  }
  const Value* find(const Key& key, FlowHash hash) const {
    const std::uint32_t index = find_index(key, hash);
    return index == kNoIndex ? nullptr : value_ptr(index);
  }

  // --- record indices ------------------------------------------------------
  //
  // Every entry's value is a slab record with a dense index, stable for the
  // entry's life: a freed index goes to the next insert, the most recently
  // freed first, else the next never-used one. A caller may use the index
  // as the entry's identity (the classifier's FID is its record index).

  static constexpr std::uint32_t kNoIndex = UINT32_MAX;

  /// The record index of `key`'s entry, or kNoIndex. The index is read from
  /// the probed slot, so a hit touches only the control and slot lines
  /// prefetch() warms; the record itself stays unread.
  std::uint32_t find_index(const Key& key, FlowHash hash) const {
    ++lookups_;
    std::size_t slot = find_slot(live_, key, hash.value);
    if (slot != kNoSlot) return live_.slots[slot].record;
    if (old_.ctrl.empty()) return kNoIndex;
    slot = find_slot(old_, key, hash.value);
    return slot == kNoSlot ? kNoIndex : old_.slots[slot].record;
  }

  /// Whether a live entry's value sits at record index `index`.
  bool holds_index(std::uint32_t index) const noexcept {
    return arena_.in_use(index);
  }
  /// The value at a live entry's record index.
  Value& value_at(std::uint32_t index) noexcept { return *value_ptr(index); }

  bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Warm the control and slot cache lines the key's probe will start at —
  /// the batch pre-pass hint (DESIGN.md §8). Never affects correctness.
  void prefetch(FlowHash hash) const noexcept {
    if (!live_.ctrl.empty()) {
      const std::size_t slot = home_slot(live_, hash.value);
      util::prefetch_read(&live_.ctrl[slot]);
      util::prefetch_read(&live_.slots[slot]);
    }
  }

  // --- mutation ----------------------------------------------------------

  /// Find-or-insert. A bounded quantum of any draining resize runs first;
  /// the returned pointer is stable for the entry's whole life (slab
  /// record addresses survive resizes). `inserted` distinguishes a fresh
  /// zero-state record from an existing one.
  template <class... Args>
  std::pair<Value*, bool> try_emplace(const Key& key, FlowHash hash,
                                      Args&&... args) {
    const auto [index, inserted] =
        try_emplace_index(key, hash, std::forward<Args>(args)...);
    return {value_ptr(index), inserted};
  }

  template <class... Args>
  std::pair<Value*, bool> try_emplace(const Key& key, Args&&... args) {
    return try_emplace(key, FlowHash{Ops::hash(key)},
                       std::forward<Args>(args)...);
  }

  /// try_emplace that returns the entry's record index.
  template <class... Args>
  std::pair<std::uint32_t, bool> try_emplace_index(const Key& key,
                                                   FlowHash hash,
                                                   Args&&... args) {
    step_resize(kResizeStepSlots);
    ++lookups_;
    std::size_t slot = find_slot(live_, key, hash.value);
    if (slot != kNoSlot) return {live_.slots[slot].record, false};
    if (!old_.ctrl.empty()) {
      const std::size_t old_slot = find_slot(old_, key, hash.value);
      if (old_slot != kNoSlot) {
        // Promote a drain-pending entry: the slot moves to the live table
        // (ahead of the cursor), the record — and every pointer to it —
        // stays put.
        const std::uint32_t record = old_.slots[old_slot].record;
        old_.ctrl[old_slot] = kTombstone;
        ++old_.tombstones;
        --old_.size;
        grow_if_needed();
        place(live_, key, hash.value, record);
        return {record, false};
      }
    }
    grow_if_needed();
    const std::uint32_t record = arena_.allocate();
    new (arena_.data(record)) Value(std::forward<Args>(args)...);
    place(live_, key, hash.value, record);
    return {record, true};
  }

  bool erase(const Key& key) { return erase(key, FlowHash{Ops::hash(key)}); }
  bool erase(const Key& key, FlowHash hash) {
    step_resize(kResizeStepSlots);
    ++lookups_;
    std::size_t slot = find_slot(live_, key, hash.value);
    if (slot != kNoSlot) {
      erase_slot(live_, slot);
      return true;
    }
    if (!old_.ctrl.empty()) {
      slot = find_slot(old_, key, hash.value);
      if (slot != kNoSlot) {
        erase_slot(old_, slot);
        return true;
      }
    }
    return false;
  }

  void clear() noexcept {
    destroy_all(live_);
    destroy_all(old_);
    live_ = Table{};
    old_ = Table{};
    drain_cursor_ = 0;
    arena_.clear();
  }

  /// Pre-size so the first `expected_entries` inserts never trigger a
  /// resize (deployment-time hint; the table still grows past it).
  void reserve(std::size_t expected_entries) {
    std::size_t capacity = kMinCapacity;
    while (occupancy_limit(capacity) < expected_entries) capacity <<= 1;
    if (capacity <= live_.ctrl.size()) return;
    if (live_.size == 0 && old_.ctrl.empty()) {
      destroy_all(live_);
      live_ = make_table(capacity);
    } else {
      finish_resize();
      start_resize(capacity);
      finish_resize();
    }
  }

  // --- iteration ---------------------------------------------------------

  /// Visit every (key, value) pair; live slots first, then any still
  /// draining. Mutating the table during iteration is not supported —
  /// callers that erase while walking collect keys first (exactly as they
  /// had to with unordered_map iterators).
  template <class F>
  void for_each(F&& fn) {
    visit_table<Value>(live_, fn);
    visit_table<Value>(old_, fn);
  }
  template <class F>
  void for_each(F&& fn) const {
    visit_table<const Value>(live_, fn);
    visit_table<const Value>(old_, fn);
  }
  /// for_each in the same order, passing each entry's record index too:
  /// fn(key, index, value).
  template <class F>
  void for_each_indexed(F&& fn) const {
    for (const Table* table : {&live_, &old_}) {
      for (std::size_t slot = 0; slot < table->ctrl.size(); ++slot) {
        if (table->ctrl[slot] & 0x80) continue;
        const std::uint32_t index = table->slots[slot].record;
        fn(table->slots[slot].key, index, std::as_const(*value_ptr(index)));
      }
    }
  }

  std::size_t size() const noexcept { return live_.size + old_.size; }
  bool empty() const noexcept { return size() == 0; }

  FlowTableStats stats() const {
    FlowTableStats stats;
    stats.entries = size();
    stats.capacity = live_.ctrl.size() + old_.ctrl.size();
    stats.tombstones = live_.tombstones + old_.tombstones;
    stats.resizing = !old_.ctrl.empty();
    stats.resizes = resizes_;
    stats.resize_steps = resize_steps_;
    stats.migrated_entries = migrated_entries_;
    stats.lookups = lookups_;
    stats.probe_total = probe_total_;
    stats.max_probe = max_probe_;
    stats.slab_bytes = arena_.capacity_bytes();
    stats.slab_records = arena_.live_records();
    return stats;
  }

  /// Slots a single mutation drains at most — the incremental-resize work
  /// bound the property test and bench assert on.
  static constexpr std::size_t kResizeStepSlots = 16;

 private:
  // Control bytes: high bit set = free (empty stops probes, tombstone does
  // not); otherwise the low 7 bits of the entry's hash, compared before the
  // key is ever read.
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint8_t kTombstone = 0xFE;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    Key key;
    std::uint32_t record = 0;
  };

  struct Table {
    std::vector<std::uint8_t> ctrl;
    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t size = 0;
    std::size_t tombstones = 0;
  };

  static std::uint8_t tag(std::uint64_t hash) noexcept {
    return static_cast<std::uint8_t>(hash & 0x7F);
  }
  static std::size_t home_slot(const Table& table,
                               std::uint64_t hash) noexcept {
    // The low 7 bits live in the control byte; the slot index uses the
    // bits above them so tag and position stay independent.
    return (hash >> 7) & table.mask;
  }
  /// Entries the table holds before a resize starts (3/4 occupancy,
  /// tombstones included — a churn-heavy table resizes in place to purge
  /// them rather than letting probes degrade). 3/4 rather than
  /// SwissTable's 7/8: scalar probing pays per slot, not per 16-wide
  /// group, and above 3/4 the linear-probe clusters push the p99 probe
  /// length past what bench_flowtable allows.
  static std::size_t occupancy_limit(std::size_t capacity) noexcept {
    return capacity - capacity / 4;
  }

  Table make_table(std::size_t capacity) {
    Table table;
    table.ctrl.assign(capacity, kEmpty);
    table.slots.resize(capacity);
    table.mask = capacity - 1;
    return table;
  }

  Value* value_ptr(std::uint32_t record) const noexcept {
    return std::launder(reinterpret_cast<Value*>(
        const_cast<std::byte*>(arena_.data(record))));
  }

  std::size_t find_slot(const Table& table, const Key& key,
                        std::uint64_t hash) const {
    if (table.ctrl.empty()) return kNoSlot;
    const std::uint8_t h2 = tag(hash);
    std::size_t slot = home_slot(table, hash);
    for (std::size_t probed = 1;; ++probed, slot = (slot + 1) & table.mask) {
      const std::uint8_t ctrl = table.ctrl[slot];
      if (ctrl == h2 && Ops::equal(table.slots[slot].key, key)) {
        note_probe(probed);
        return slot;
      }
      if (ctrl == kEmpty || probed > table.mask) {
        note_probe(probed);
        return kNoSlot;
      }
    }
  }

  void note_probe(std::size_t probed) const noexcept {
    probe_total_ += probed;
    if (probed > max_probe_) max_probe_ = probed;
  }

  /// Claim the first free slot on the key's probe path. The caller has
  /// established the key is absent from this table.
  void place(Table& table, const Key& key, std::uint64_t hash,
             std::uint32_t record) {
    std::size_t slot = home_slot(table, hash);
    while (!(table.ctrl[slot] & 0x80)) slot = (slot + 1) & table.mask;
    if (table.ctrl[slot] == kTombstone) --table.tombstones;
    table.ctrl[slot] = tag(hash);
    table.slots[slot] = Slot{key, record};
    ++table.size;
  }

  void erase_slot(Table& table, std::size_t slot) {
    const std::uint32_t record = table.slots[slot].record;
    value_ptr(record)->~Value();
    arena_.release(record);
    --table.size;
    if (table.ctrl[(slot + 1) & table.mask] != kEmpty) {
      table.ctrl[slot] = kTombstone;
      ++table.tombstones;
      return;
    }
    // No probe runs past an empty slot, so no key's probe path reaches the
    // empty slot after this one: neither this slot nor the run of
    // tombstones right before it lies on any key's path, and all of them
    // can be empty again.
    table.ctrl[slot] = kEmpty;
    for (std::size_t prev = (slot - 1) & table.mask;
         table.ctrl[prev] == kTombstone; prev = (prev - 1) & table.mask) {
      table.ctrl[prev] = kEmpty;
      --table.tombstones;
    }
  }

  void grow_if_needed() {
    if (live_.ctrl.empty()) {
      live_ = make_table(kMinCapacity);
      return;
    }
    // Entries still draining from old_ count against the live capacity:
    // they will all land in live_ if a forced finish runs, so triggering
    // on the combined total guarantees the finish below can never overflow
    // the live table.
    if (live_.size + old_.size + live_.tombstones + 1 <=
        occupancy_limit(live_.ctrl.size())) {
      return;
    }
    // Only one resize drains at a time; a still-draining one is forced to
    // completion before the next starts. The per-mutation drain quantum
    // outpaces table fill by a wide margin, so this forced finish is a
    // correctness backstop, not a latency cliff.
    if (!old_.ctrl.empty()) finish_resize();
    std::size_t capacity = kMinCapacity;
    while (occupancy_limit(capacity) < (live_.size + 1) * 2) capacity <<= 1;
    start_resize(capacity);
  }

  void start_resize(std::size_t new_capacity) {
    ++resizes_;
    old_ = std::move(live_);
    live_ = make_table(new_capacity);
    drain_cursor_ = 0;
  }

  /// Drain up to `max_slots` slots of the old table into the live one —
  /// the bounded work quantum every mutation pays while a resize is in
  /// flight. Records never move; only (key, record-index) slots do.
  void step_resize(std::size_t max_slots) {
    if (old_.ctrl.empty()) return;
    ++resize_steps_;
    std::size_t scanned = 0;
    while (scanned < max_slots && drain_cursor_ < old_.ctrl.size()) {
      const std::uint8_t ctrl = old_.ctrl[drain_cursor_];
      if (!(ctrl & 0x80)) {
        const Slot& slot = old_.slots[drain_cursor_];
        place(live_, slot.key, Ops::hash(slot.key), slot.record);
        old_.ctrl[drain_cursor_] = kTombstone;
        ++old_.tombstones;
        --old_.size;
        ++migrated_entries_;
      }
      ++drain_cursor_;
      ++scanned;
    }
    if (drain_cursor_ >= old_.ctrl.size()) {
      old_ = Table{};
      drain_cursor_ = 0;
    }
  }

  void finish_resize() {
    while (!old_.ctrl.empty()) step_resize(old_.ctrl.size());
  }

  void destroy_all(Table& table) noexcept {
    for (std::size_t slot = 0; slot < table.ctrl.size(); ++slot) {
      if (!(table.ctrl[slot] & 0x80)) {
        value_ptr(table.slots[slot].record)->~Value();
      }
    }
  }

  // V is Value or const Value — one walk serves both for_each overloads.
  template <class V, class F>
  void visit_table(const Table& table, F& fn) const {
    for (std::size_t slot = 0; slot < table.ctrl.size(); ++slot) {
      if (table.ctrl[slot] & 0x80) continue;
      fn(table.slots[slot].key,
         static_cast<V&>(*value_ptr(table.slots[slot].record)));
    }
  }

  Table live_;
  Table old_;  // non-empty only while a resize is draining
  std::size_t drain_cursor_ = 0;
  SlabArena arena_;

  std::uint64_t resizes_ = 0;
  std::uint64_t resize_steps_ = 0;
  std::uint64_t migrated_entries_ = 0;
  // Probe statistics move on lookups, so they are mutable; the table's
  // single-owner contract makes that safe (no concurrent const readers).
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t probe_total_ = 0;
  mutable std::uint64_t max_probe_ = 0;
};

}  // namespace speedybox::core
