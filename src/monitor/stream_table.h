// Per-stream state table for fleet ingestion.
//
// One StreamTable maps the sparse 32-bit stream ids arriving on the wire to
// dense ids, routes each dense id onto a (shard, bank lane) pair, and owns
// the per-shard core::BankController instances whose SoA arrays hold the
// actual detector state. Streams are interned on first sight: dense ids are
// assigned in arrival order, so stream k lands on shard k % shards, lane
// k / shards — round-robin balance with no rebalancing and a stable mapping
// that checkpoint restore can replay exactly.
//
// Memory model (docs/MONITORING.md has the full picture):
//   * external → dense: a flat open-addressing hash table (power-of-two
//     capacity, linear probing, one u64 per entry), no per-stream
//     allocation on the lookup path;
//   * dense → metadata: fixed 4096-slot slabs allocated as streams appear,
//     so slot addresses are stable (no vector reallocation) and 100k
//     streams cost 25 slab mallocs instead of 100k node allocations;
//   * detector state: packed in the bank controllers' structure-of-arrays
//     lanes (src/core/bank.h) — 154 heap bytes per SRAA stream, up to ~200
//     with vector regrowth slack (docs/BANKS.md), contiguous per shard,
//     advanced by the vectorized row kernels. The detector config is held
//     once per shard, not per stream.
//
// Thread contract: the naming side (acquire/find/received) is single-owner
// — only the ingest thread touches it. external_id() of an
// already-interned stream may additionally be read by the worker that owns
// the stream's shard (the slab pointer array is preallocated so interning
// never moves slots, and the slot's id is written before the stream's
// first observation is queued). Each shard's
// BankController is single-owner too, but by that shard's worker thread;
// ensure_lanes() is how a worker grows its own controller to cover lanes
// the ingest thread has already routed to it (the lane count travels with
// the queued work, so the worker always grows before it observes).
// Checkpoint save/restore runs while the workers are quiesced.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/prefetch.h"
#include "core/bank.h"
#include "core/registry.h"

namespace rejuv::monitor {

class StreamTable {
 public:
  /// Returned by acquire/find when the table is full / the id is unknown.
  static constexpr std::uint32_t kInvalidStream = 0xFFFFFFFFu;

  /// All streams run the same detector `config` (one fleet = one SLA).
  /// `max_streams` bounds the table; `cooldown_observations` is forwarded
  /// to every shard controller.
  StreamTable(const core::DetectorConfig& config, std::size_t shards, std::size_t max_streams,
              std::uint64_t cooldown_observations);

  // --- Naming side (ingest thread only) ---

  /// Dense id for `external_id`, interning it on first sight (`created` set
  /// accordingly). kInvalidStream when the table is at max_streams.
  std::uint32_t acquire(std::uint32_t external_id, bool& created);
  /// Dense id for a known external id; kInvalidStream when absent.
  std::uint32_t find(std::uint32_t external_id) const;
  /// Starts loading the home slot of `external_id`'s probe, so a later
  /// acquire/find of it finds the line in cache. A hint: no state changes,
  /// and an id interned or grown past in between is still probed correctly.
  void prefetch(std::uint32_t external_id) const noexcept {
    common::prefetch_read(map_.data() + hash_id(external_id, map_.size() - 1));
  }
  /// How many records ahead a batch walk prefetches (prefetch(id of record
  /// i + kProbeLookahead) before acquire(id of record i)): far enough for a
  /// DRAM miss to land, near enough for the line to still be cached.
  static constexpr std::size_t kProbeLookahead = 16;
  /// The external id a dense id was interned from.
  std::uint32_t external_id(std::uint32_t dense) const;
  /// Per-stream observation tally (ingest-side routing count).
  std::uint64_t received(std::uint32_t dense) const;
  void count_received(std::uint32_t dense) { slot(dense).received++; }

  std::size_t size() const noexcept { return count_; }
  std::size_t max_streams() const noexcept { return max_streams_; }
  std::size_t shards() const noexcept { return controllers_.size(); }
  const core::DetectorConfig& config() const noexcept { return config_; }

  std::uint32_t shard_of(std::uint32_t dense) const noexcept {
    return dense % static_cast<std::uint32_t>(controllers_.size());
  }
  std::uint32_t lane_of(std::uint32_t dense) const noexcept {
    return dense / static_cast<std::uint32_t>(controllers_.size());
  }
  std::uint32_t dense_of(std::uint32_t shard, std::uint32_t lane) const noexcept {
    return lane * static_cast<std::uint32_t>(controllers_.size()) + shard;
  }

  // --- Detector side (each controller: its shard's worker thread only) ---

  core::BankController& controller(std::size_t shard) { return *controllers_[shard]; }
  const core::BankController& controller(std::size_t shard) const { return *controllers_[shard]; }

  /// Grows shard `shard`'s controller to at least `lane_count` lanes (all
  /// lanes share config()) in one BankController::add_lanes call. Called by
  /// the owning worker before observing a batch that references new lanes.
  void ensure_lanes(std::size_t shard, std::size_t lane_count);

 private:
  struct Slot {
    std::uint32_t external_id = 0;
    std::uint64_t received = 0;
  };
  static constexpr std::size_t kSlabShift = 12;  ///< 4096 slots per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;
  static constexpr std::uint64_t kEmptyEntry = ~std::uint64_t{0};

  // Fibonacci hashing spreads consecutive external ids (the common
  // assignment scheme) across the table.
  static std::size_t hash_id(std::uint32_t id, std::size_t mask) noexcept {
    return static_cast<std::size_t>((std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  }
  Slot& slot(std::uint32_t dense);
  const Slot& slot(std::uint32_t dense) const;
  void grow_map();

  core::DetectorConfig config_;
  std::size_t max_streams_;
  std::vector<std::unique_ptr<core::BankController>> controllers_;

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::size_t count_ = 0;

  /// Open-addressing entries: (external id << 32) | dense id.
  std::vector<std::uint64_t> map_;
};

}  // namespace rejuv::monitor
