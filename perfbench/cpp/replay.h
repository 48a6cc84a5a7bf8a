// Span names of the traced fleet replay (see replay.cpp for the tree).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kIteration,
  kPoll,
  kDecode,
  kAcquire,
  kPush,
  kPop,
  kObserve,
  kTriggerDrain,
  kAppend,
  kShape,
  kCount,
};

inline constexpr std::array<std::string_view, static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {"fleet.iteration",    "event_loop.poll",    "wire.decode",
                  "stream_table.acquire", "spsc.push",        "spsc.pop",
                  "bank.observe_lanes", "bank.trigger_drain", "checkpoint.append",
                  "replay.batch_shape"};

}  // namespace perfbench
