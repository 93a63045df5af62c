#include "core/flow_table.hpp"

namespace speedybox::core {

SlabArena::SlabArena(std::size_t record_size) noexcept
    : record_size_(record_size == 0 ? 1 : record_size) {}

std::uint32_t SlabArena::allocate() {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    // With an empty free list every carved record is live, so the live
    // count is exactly the next fresh index.
    if (live_ == chunks_.size() * kRecordsPerChunk) {
      chunks_.push_back(
          std::make_unique<std::byte[]>(kRecordsPerChunk * record_size_));
      in_use_.resize(chunks_.size() * kRecordsPerChunk);
    }
    index = static_cast<std::uint32_t>(live_);
  }
  in_use_[index] = true;
  // Zero-fill so record padding bytes are deterministic: migration export
  // can memcpy the record image and byte-equivalence holds across
  // export → import → export round trips.
  std::memset(data(index), 0, record_size_);
  ++live_;
  return index;
}

void SlabArena::release(std::uint32_t index) noexcept {
  free_.push_back(index);
  in_use_[index] = false;
  --live_;
}

void SlabArena::clear() noexcept {
  chunks_.clear();
  free_.clear();
  in_use_.clear();
  live_ = 0;
}

}  // namespace speedybox::core
