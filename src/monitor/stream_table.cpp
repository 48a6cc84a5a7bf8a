#include "monitor/stream_table.h"

#include <stdexcept>

namespace rejuv::monitor {

StreamTable::StreamTable(const core::DetectorConfig& config, std::size_t shards,
                         std::size_t max_streams, std::uint64_t cooldown_observations)
    : config_(config), max_streams_(max_streams) {
  if (shards == 0) throw std::invalid_argument("StreamTable: shards must be >= 1");
  if (max_streams == 0) throw std::invalid_argument("StreamTable: max_streams must be >= 1");
  if (max_streams_ >= kInvalidStream) max_streams_ = kInvalidStream - 1;
  controllers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    controllers_.push_back(
        std::make_unique<core::BankController>(config_, cooldown_observations));
  }
  map_.assign(64, kEmptyEntry);
  // The slab pointer array never reallocates: workers read external_id() of
  // already-interned streams concurrently with the ingest thread interning
  // new ones, and a push_back-triggered reallocation would move the
  // pointers under them. One pointer per 4096 streams, so even a
  // million-stream reserve is 2 KiB.
  slabs_.reserve((max_streams_ >> kSlabShift) + 1);
}

StreamTable::Slot& StreamTable::slot(std::uint32_t dense) {
  return slabs_[dense >> kSlabShift][dense & (kSlabSize - 1)];
}

const StreamTable::Slot& StreamTable::slot(std::uint32_t dense) const {
  return slabs_[dense >> kSlabShift][dense & (kSlabSize - 1)];
}

std::uint32_t StreamTable::find(std::uint32_t external_id) const {
  const std::size_t mask = map_.size() - 1;
  std::size_t index = hash_id(external_id, mask);
  while (map_[index] != kEmptyEntry) {
    if (static_cast<std::uint32_t>(map_[index] >> 32) == external_id) {
      return static_cast<std::uint32_t>(map_[index]);
    }
    index = (index + 1) & mask;
  }
  return kInvalidStream;
}

void StreamTable::grow_map() {
  std::vector<std::uint64_t> old = std::move(map_);
  map_.assign(old.size() * 2, kEmptyEntry);
  const std::size_t mask = map_.size() - 1;
  for (const std::uint64_t entry : old) {
    if (entry == kEmptyEntry) continue;
    std::size_t index = hash_id(static_cast<std::uint32_t>(entry >> 32), mask);
    while (map_[index] != kEmptyEntry) index = (index + 1) & mask;
    map_[index] = entry;
  }
}

std::uint32_t StreamTable::acquire(std::uint32_t external_id, bool& created) {
  created = false;
  const std::uint32_t existing = find(external_id);
  if (existing != kInvalidStream) return existing;
  if (count_ >= max_streams_) return kInvalidStream;

  // Keep load factor under 2/3 so probe chains stay short at 100k streams.
  if ((count_ + 1) * 3 >= map_.size() * 2) grow_map();

  const auto dense = static_cast<std::uint32_t>(count_);
  if ((dense >> kSlabShift) >= slabs_.size()) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
  }
  slot(dense).external_id = external_id;
  slot(dense).received = 0;
  ++count_;

  const std::size_t mask = map_.size() - 1;
  std::size_t index = hash_id(external_id, mask);
  while (map_[index] != kEmptyEntry) index = (index + 1) & mask;
  map_[index] = (std::uint64_t{external_id} << 32) | dense;
  created = true;
  return dense;
}

std::uint32_t StreamTable::external_id(std::uint32_t dense) const {
  return slot(dense).external_id;
}

std::uint64_t StreamTable::received(std::uint32_t dense) const { return slot(dense).received; }

void StreamTable::ensure_lanes(std::size_t shard, std::size_t lane_count) {
  core::BankController& ctrl = *controllers_[shard];
  if (ctrl.lanes() < lane_count) ctrl.add_lanes(lane_count - ctrl.lanes());
}

}  // namespace rejuv::monitor
