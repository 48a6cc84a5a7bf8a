// Cache prefetch hints for the fleet path's random walks.
//
// The stream-table probe, the sparse observe_lanes step and the trigger
// drain each visit per-stream state in an order they already know a few
// items ahead. These hints start the load of an item's cache line while the
// current item is processed. A hint never faults and changes no state, so a
// walk's order and results are the same with or without it; on compilers
// without the builtin it compiles to nothing.
#pragma once

namespace rejuv::common {

/// Starts loading the line holding `p` for a read.
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Starts loading the line holding `p` for a write.
inline void prefetch_write(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

}  // namespace rejuv::common
