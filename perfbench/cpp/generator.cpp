// The load generator: the parent's single thread writing pre-encoded
// frames into one pipe at a time.
//
// A saturation burst writes a fixed number of cycle frames as fast as the
// pipe takes them. An open-loop window schedules its frame k at t0 + k / rate
// regardless of how the engine keeps up, writes every frame already due in
// one write(), and records how late each frame went out; a backlog that
// grows over a window means the engine fell behind the offered rate.
#include <fcntl.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "fleet.h"
#include "monitor/wire.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr std::size_t kFrameBytes = 2 + rejuv::monitor::wire::kObservationPayloadSize;

/// write() until done. The pipe is non-blocking: when it is full the
/// generator naps 100 us and retries. It never blocks in write(), so the
/// engine never has to wake it, and it does not spin on the pipe's lock
/// while the engine reads; 1 MiB of queued frames outlasts the nap.
/// False on a write error or when the engine has not taken the bytes by
/// `deadline_ns`.
bool write_frames(int fd, const char* data, std::size_t size, std::int64_t deadline_ns) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EAGAIN) {
        if (now_ns() > deadline_ns) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct Writer {
  const EncodedLoad& load;
  std::int64_t deadline_ns = 0;

  /// Writes cycle frames [first, first + count) (wrapping) to `fd`.
  bool frames(int fd, std::uint64_t first, std::uint64_t count) const {
    const std::uint64_t size = load.cycle.size() / kFrameBytes;
    while (count > 0) {
      const std::uint64_t at = first % size;
      const std::uint64_t n = std::min(count, size - at);
      if (!write_frames(fd, load.cycle.data() + at * kFrameBytes, n * kFrameBytes, deadline_ns)) {
        return false;
      }
      first += n;
      count -= n;
    }
    return true;
  }
};

/// Blocks until the reader has taken every byte out of the pipe; false
/// when it has not by `deadline_ns`.
bool wait_drained(int fd, std::int64_t deadline_ns) {
  for (;;) {
    int queued = 0;
    if (ioctl(fd, FIONREAD, &queued) != 0 || queued == 0) return true;
    if (now_ns() > deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Writes cycle frames [first, first + count) on the schedule t0 + k / rate
/// and appends each frame's lateness. Returns t0, or -1 on a write error.
std::int64_t paced(const Writer& writer, int fd, std::uint64_t first, std::uint64_t count,
                   double rate, std::vector<float>& lateness_us) {
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::uint64_t written = 0;
  while (written < count) {
    const std::int64_t now = now_ns();
    if (now < t0) continue;
    const auto due = std::min<std::uint64_t>(
        count, static_cast<std::uint64_t>(static_cast<double>(now - t0) / period_ns) + 1);
    if (due == written) continue;  // spin: the next frame is microseconds away
    for (std::uint64_t k = written; k < due; ++k) {
      const double due_ns = static_cast<double>(t0) + static_cast<double>(k) * period_ns;
      lateness_us.push_back(static_cast<float>((static_cast<double>(now) - due_ns) / 1e3));
    }
    if (!writer.frames(fd, first + written, due - written)) return -1;
    written = due;
  }
  return t0;
}

/// How much later the last tenth of a window's frames went out than its
/// first tenth (medians, so one preemption does not count).
double backlog_growth(const std::vector<float>& lateness_us, std::size_t begin) {
  const std::vector<double> window(lateness_us.begin() + static_cast<std::ptrdiff_t>(begin),
                                   lateness_us.end());
  const auto tenth = static_cast<std::ptrdiff_t>(std::max<std::size_t>(1, window.size() / 10));
  return median(std::vector<double>(window.end() - tenth, window.end())) -
         median(std::vector<double>(window.begin(), window.begin() + tenth));
}

}  // namespace

EncodedLoad encode_load(const FleetInput& input) {
  EncodedLoad load;
  rejuv::monitor::wire::append_preamble(load.warmup);
  encode_frames(input, input.warmup, 0, input.warmup.size(), load.warmup);
  encode_frames(input, input.cycle, 0, input.cycle.size(), load.cycle);
  return load;
}

LoadReport generate_load(const FleetWorkload& workload, const EncodedLoad& load,
                         const FleetPlan& plan, const std::vector<int>& fds,
                         std::int64_t deadline_ns) {
  const Writer writer{load, deadline_ns};

  LoadReport report;
  // On a failed write the engine is gone or stuck: close what is left so a
  // live engine sees end of input.
  const auto fail = [&](std::size_t p) {
    for (; p < fds.size(); ++p) close(fds[p]);
    return report;
  };
  std::vector<float> lateness_us;
  lateness_us.reserve(plan.open_loop_frames);  // no reallocation while pacing
  for (std::size_t p = 0; p < plan.pipes.size(); ++p) {
    const int fd = fds[p];
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    if (!write_frames(fd, load.warmup.data(), load.warmup.size(), deadline_ns)) {
      return fail(p);
    }
    std::uint64_t sent = 0;  // cycle frames written after the warm-up pass
    switch (plan.pipes[p]) {
      case PipeKind::kSetup:
        break;
      case PipeKind::kPrep:
        sent = workload.prep_frames;
        if (!writer.frames(fd, 0, sent)) return fail(p);
        break;
      case PipeKind::kReplay:
        sent = plan.replay_frames;
        if (!writer.frames(fd, 0, sent)) return fail(p);
        break;
      case PipeKind::kMain:
        for (std::size_t r = 0; r < plan.rounds; ++r) {
          const std::uint64_t burst = plan.saturation_frames / plan.rounds;
          if (!writer.frames(fd, sent, burst)) return fail(p);
          sent += burst;
          // Let the engine drain the burst (it stops reading while a journal
          // compaction runs) so the window starts from an idle engine.
          if (!wait_drained(fd, deadline_ns)) return fail(p);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          const std::uint64_t window = plan.open_loop_frames / plan.rounds;
          const std::size_t first_late = lateness_us.size();
          const std::int64_t t0 =
              paced(writer, fd, sent, window, workload.open_loop_rate, lateness_us);
          if (t0 < 0) return fail(p);
          report.window_t0_ns.push_back(t0);
          sent += window;
          report.backlog_growth_us.push_back(backlog_growth(lateness_us, first_late));
        }
        break;
    }
    report.frames.push_back(sent);
    close(fd);
  }
  if (!lateness_us.empty()) {
    const std::vector<double> all(lateness_us.begin(), lateness_us.end());
    report.late_p95_us = percentile(all, 95);
  }
  report.ok = true;
  return report;
}

}  // namespace perfbench
