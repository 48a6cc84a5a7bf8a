// Pluggable trace sinks.
//
// The tracer forwards every TraceEvent to exactly one sink. NullSink
// discards (useful to measure tracer overhead in isolation); RingBufferSink
// keeps the newest events in memory for flight-recorder post-mortems;
// JsonlSink and CsvSink stream to an ostream for offline analysis with
// tools/rejuv_trace or any dataframe library. Sinks are single-threaded,
// matching the single-writer tracer contract; LockedSink lets several
// tracers on different threads share one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.h"

namespace rejuv::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Discards every event.
class NullSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override {}
};

/// Fixed-capacity flight recorder: keeps the newest `capacity` events,
/// overwriting the oldest on wraparound.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void record(const TraceEvent& event) override;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently retained (<= capacity).
  std::size_t size() const noexcept { return buffer_.size(); }
  /// Total events ever recorded, including overwritten ones.
  std::uint64_t total_recorded() const noexcept { return total_; }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // overwrite position once full
  std::uint64_t total_ = 0;
  std::vector<TraceEvent> buffer_;
};

/// One JSON object per line. `out` must outlive the sink.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void record(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
};

/// Serializes events from several threads into one single-threaded sink:
/// every tracer of a multi-threaded monitor points here, and the wrapped
/// sink sees a totally ordered stream. `inner` must outlive the wrapper.
class LockedSink final : public TraceSink {
 public:
  explicit LockedSink(TraceSink* inner) : inner_(inner) {}

  void record(const TraceEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->record(event);
  }
  void flush() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->flush();
  }

 private:
  std::mutex mutex_;
  TraceSink* inner_;
};

/// Header + one row per event, same field set as the JSONL schema.
class CsvSink final : public TraceSink {
 public:
  /// Writes the header line immediately. `out` must outlive the sink.
  explicit CsvSink(std::ostream& out);

  void record(const TraceEvent& event) override;
  void flush() override;

  static std::string header();

 private:
  std::ostream& out_;
};

/// Serializes an event to one JSON line (no trailing newline).
std::string to_json(const TraceEvent& event);

/// Serializes an event to one CSV row matching CsvSink::header().
std::string to_csv(const TraceEvent& event);

/// Escapes a string for embedding in a JSON double-quoted literal
/// (backslash, quote, and control characters).
std::string json_escape(std::string_view text);

}  // namespace rejuv::obs
