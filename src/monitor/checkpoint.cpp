#include "monitor/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "obs/sink.h"

namespace rejuv::monitor {

namespace {

// Shortest form that parses back to the identical double (std::to_chars),
// the same guarantee the trace sinks rely on.
std::string format_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string join_u64(const std::vector<std::uint64_t>& values) {
  std::string text;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(values[i]);
  }
  return text;
}

std::optional<std::vector<std::uint64_t>> split_u64(std::string_view text) {
  std::vector<std::uint64_t> values;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(start, comma - start);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || ptr != item.data() + item.size()) return std::nullopt;
    values.push_back(value);
    start = comma + 1;
  }
  return values;
}

std::string join_f64(const std::vector<double>& values) {
  std::string text;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ",";
    text += format_double(values[i]);
  }
  return text;
}

std::optional<std::vector<double>> split_f64(std::string_view text) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(start, comma - start);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || ptr != item.data() + item.size()) return std::nullopt;
    values.push_back(value);
    start = comma + 1;
  }
  return values;
}

// --- Minimal JSON cursor, mirroring the trace reader's scanner. ---

struct Scanner {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void skip_spaces() {
    while (!done() && (peek() == ' ' || peek() == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_spaces();
    if (done() || peek() != c) return false;
    ++pos;
    return true;
  }
};

std::optional<std::string> parse_string(Scanner& scanner) {
  if (!scanner.consume('"')) return std::nullopt;
  std::string value;
  while (!scanner.done()) {
    const char c = scanner.text[scanner.pos++];
    if (c == '"') return value;
    if (c != '\\') {
      value.push_back(c);
      continue;
    }
    if (scanner.done()) return std::nullopt;
    const char escape = scanner.text[scanner.pos++];
    switch (escape) {
      case '"':
      case '\\':
      case '/':
        value.push_back(escape);
        break;
      case 'n':
        value.push_back('\n');
        break;
      case 'r':
        value.push_back('\r');
        break;
      case 't':
        value.push_back('\t');
        break;
      default:
        return std::nullopt;  // the writer emits nothing fancier
    }
  }
  return std::nullopt;  // unterminated: a torn final line
}

std::optional<double> parse_number(Scanner& scanner) {
  scanner.skip_spaces();
  const auto* first = scanner.text.data() + scanner.pos;
  const auto* last = scanner.text.data() + scanner.text.size();
  double value = 0.0;
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc{} || result.ptr == first) return std::nullopt;
  scanner.pos += static_cast<std::size_t>(result.ptr - first);
  return value;
}

}  // namespace

std::string to_json(const ShardCheckpoint& checkpoint) {
  const core::ControllerState& controller = checkpoint.controller;
  const core::DetectorState& detector = controller.detector;
  std::string line;
  line.reserve(512);
  line += "{\"v\":" + std::to_string(checkpoint.version);
  line += ",\"spec\":\"" + obs::json_escape(checkpoint.spec) + "\"";
  line += ",\"shard\":" + std::to_string(checkpoint.shard);
  line += ",\"shards\":" + std::to_string(checkpoint.shard_count);
  line += ",\"tsa\":" + std::to_string(checkpoint.triggers_since_action);
  // Fleet-mode external stream id; absent on classic per-shard records so
  // those stay byte-identical to the PR 3 format.
  if (checkpoint.stream_id) {
    line += ",\"sid\":" + std::to_string(*checkpoint.stream_id);
  }
  line += ",\"obs\":" + std::to_string(controller.observations);
  line += ",\"cooldown\":" + std::to_string(controller.cooldown_remaining);
  line += ",\"triggers\":\"" + join_u64(controller.trigger_indices) + "\"";
  line += ",\"alg\":\"" + obs::json_escape(detector.algorithm) + "\"";
  line += ",\"cascade\":";
  line += detector.has_cascade ? "true" : "false";
  line += ",\"bucket\":" + std::to_string(detector.bucket);
  line += ",\"fill\":" + std::to_string(detector.fill);
  line += ",\"window\":";
  line += detector.has_window ? "true" : "false";
  line += ",\"wlen\":" + std::to_string(detector.window_length);
  line += ",\"wnext\":" + std::to_string(detector.window_next);
  line += ",\"wcount\":" + std::to_string(detector.window_count);
  line += ",\"wsum\":" + format_double(detector.window_sum);
  line += ",\"curn\":" + std::to_string(detector.current_n);
  line += ",\"lastavg\":" + format_double(detector.last_average);
  line += ",\"calib\":";
  line += detector.calibrating ? "true" : "false";
  line += ",\"ccount\":" + std::to_string(detector.calibration_count);
  line += ",\"cmean\":" + format_double(detector.calibration_mean);
  line += ",\"cm2\":" + format_double(detector.calibration_m2);
  line += ",\"cmin\":" + format_double(detector.calibration_min);
  line += ",\"cmax\":" + format_double(detector.calibration_max);
  line += ",\"bmean\":" + format_double(detector.baseline_mean);
  line += ",\"bstddev\":" + format_double(detector.baseline_stddev);
  // Registry extension payload: families beyond the flat fields (Adaptive,
  // EDiv, Entropy, MK, ...). Old readers ignore the unknown keys; an empty
  // tag keeps the line byte-identical to the pre-extension format.
  if (!detector.extra_tag.empty() || !detector.extra_u64.empty() || !detector.extra_f64.empty()) {
    line += ",\"xtag\":\"" + obs::json_escape(detector.extra_tag) + "\"";
    line += ",\"xu\":\"" + join_u64(detector.extra_u64) + "\"";
    line += ",\"xf\":\"" + join_f64(detector.extra_f64) + "\"";
  }
  line += "}";
  return line;
}

std::optional<ShardCheckpoint> parse_checkpoint_line(std::string_view line) {
  Scanner scanner{line};
  if (!scanner.consume('{')) return std::nullopt;

  ShardCheckpoint checkpoint;
  checkpoint.version = 0;  // must be seen explicitly
  core::ControllerState& controller = checkpoint.controller;
  core::DetectorState& detector = controller.detector;
  bool saw_spec = false;
  bool first = true;
  while (true) {
    if (scanner.consume('}')) break;
    if (!first && !scanner.consume(',')) return std::nullopt;
    first = false;

    const auto key = parse_string(scanner);
    if (!key || !scanner.consume(':')) return std::nullopt;
    scanner.skip_spaces();
    if (scanner.done()) return std::nullopt;

    if (scanner.peek() == '"') {
      const auto text = parse_string(scanner);
      if (!text) return std::nullopt;
      if (*key == "spec") {
        checkpoint.spec = *text;
        saw_spec = true;
      } else if (*key == "triggers") {
        auto values = split_u64(*text);
        if (!values) return std::nullopt;
        controller.trigger_indices = std::move(*values);
      } else if (*key == "alg") {
        detector.algorithm = *text;
      } else if (*key == "xtag") {
        detector.extra_tag = *text;
      } else if (*key == "xu") {
        auto values = split_u64(*text);
        if (!values) return std::nullopt;
        detector.extra_u64 = std::move(*values);
      } else if (*key == "xf") {
        auto values = split_f64(*text);
        if (!values) return std::nullopt;
        detector.extra_f64 = std::move(*values);
      }
      continue;
    }
    if (scanner.text.substr(scanner.pos, 4) == "true") {
      scanner.pos += 4;
      if (*key == "cascade") detector.has_cascade = true;
      if (*key == "window") detector.has_window = true;
      if (*key == "calib") detector.calibrating = true;
      continue;
    }
    if (scanner.text.substr(scanner.pos, 5) == "false") {
      scanner.pos += 5;
      continue;  // all booleans default to false
    }
    const auto number = parse_number(scanner);
    if (!number) return std::nullopt;
    if (*key == "v") {
      checkpoint.version = static_cast<std::uint32_t>(*number);
    } else if (*key == "shard") {
      checkpoint.shard = static_cast<std::uint32_t>(*number);
    } else if (*key == "shards") {
      checkpoint.shard_count = static_cast<std::uint32_t>(*number);
    } else if (*key == "tsa") {
      checkpoint.triggers_since_action = static_cast<std::uint64_t>(*number);
    } else if (*key == "sid") {
      checkpoint.stream_id = static_cast<std::uint32_t>(*number);
    } else if (*key == "obs") {
      controller.observations = static_cast<std::uint64_t>(*number);
    } else if (*key == "cooldown") {
      controller.cooldown_remaining = static_cast<std::uint64_t>(*number);
    } else if (*key == "bucket") {
      detector.bucket = static_cast<std::uint64_t>(*number);
    } else if (*key == "fill") {
      detector.fill = static_cast<std::int64_t>(*number);
    } else if (*key == "wlen") {
      detector.window_length = static_cast<std::uint64_t>(*number);
    } else if (*key == "wnext") {
      detector.window_next = static_cast<std::uint64_t>(*number);
    } else if (*key == "wcount") {
      detector.window_count = static_cast<std::uint64_t>(*number);
    } else if (*key == "wsum") {
      detector.window_sum = *number;
    } else if (*key == "curn") {
      detector.current_n = static_cast<std::uint64_t>(*number);
    } else if (*key == "lastavg") {
      detector.last_average = *number;
    } else if (*key == "ccount") {
      detector.calibration_count = static_cast<std::uint64_t>(*number);
    } else if (*key == "cmean") {
      detector.calibration_mean = *number;
    } else if (*key == "cm2") {
      detector.calibration_m2 = *number;
    } else if (*key == "cmin") {
      detector.calibration_min = *number;
    } else if (*key == "cmax") {
      detector.calibration_max = *number;
    } else if (*key == "bmean") {
      detector.baseline_mean = *number;
    } else if (*key == "bstddev") {
      detector.baseline_stddev = *number;
    }  // unknown keys are ignored (forward compatibility within a version)
  }
  if (!saw_spec || checkpoint.version != core::kCheckpointVersion) return std::nullopt;
  return checkpoint;
}

CheckpointWriter::CheckpointWriter(const std::string& path, std::uint64_t compact_threshold_bytes)
    : path_(path), compact_threshold_(compact_threshold_bytes),
      next_compact_(compact_threshold_bytes) {
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    throw std::invalid_argument("cannot open checkpoint journal for append: " + path);
  }
  // "a" positions writes at the end but reports offset 0 until the first
  // write; seek explicitly so bytes_ reflects a pre-existing journal.
  std::fseek(file_, 0, SEEK_END);
  const long size = std::ftell(file_);
  if (size > 0) bytes_ = static_cast<std::uint64_t>(size);
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const ShardCheckpoint& checkpoint) {
  const std::string line = to_json(checkpoint) + "\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  bytes_ += line.size();
  if (compact_threshold_ > 0 && bytes_ >= next_compact_) compact_locked();
}

void CheckpointWriter::compact_locked() {
  // Everything is flushed, so re-reading the journal sees every record; the
  // last valid line per shard is exactly the live set.
  const std::vector<ShardCheckpoint> live = read_latest_checkpoints(path_);
  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "w");
  if (tmp == nullptr) return;  // can't compact now; append path still works
  std::uint64_t live_bytes = 0;
  bool written = true;
  for (const ShardCheckpoint& record : live) {
    const std::string line = to_json(record) + "\n";
    written = written && std::fwrite(line.data(), 1, line.size(), tmp) == line.size();
    live_bytes += line.size();
  }
  written = std::fflush(tmp) == 0 && written;
  written = std::fclose(tmp) == 0 && written;
  // A short write must never replace the journal: drop the temp file and
  // keep appending to the old journal (the next append retries).
  if (!written || std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return;
  }
  std::FILE* reopened = std::fopen(path_.c_str(), "a");
  if (reopened == nullptr) return;  // keep the old handle (now unlinked inode)
  std::fclose(file_);
  file_ = reopened;
  const std::uint64_t before = bytes_;
  bytes_ = live_bytes;
  ++compactions_;
  // A journal that is mostly live would otherwise trip on every append;
  // back off to twice the live size so rewrites stay amortized O(1).
  next_compact_ = std::max(compact_threshold_, live_bytes * 2);
  if (hook_) hook_(live.size(), before, live_bytes);
}

std::vector<ShardCheckpoint> read_latest_checkpoints(const std::string& path) {
  std::ifstream in(path);
  std::map<std::uint32_t, ShardCheckpoint> latest;
  std::string line;
  while (std::getline(in, line)) {
    auto checkpoint = parse_checkpoint_line(line);
    if (!checkpoint) continue;  // torn or foreign line: skip, keep scanning
    latest[checkpoint->shard] = std::move(*checkpoint);
  }
  std::vector<ShardCheckpoint> records;
  records.reserve(latest.size());
  for (auto& [shard, record] : latest) records.push_back(std::move(record));
  return records;
}

}  // namespace rejuv::monitor
