#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::size_t samples_needed(double p, std::size_t min_tail) {
  // n * (1 - p/100) >= min_tail, computed in integer per-mille to stay exact.
  const auto tail_permille = static_cast<std::size_t>(std::llround((100.0 - p) * 10.0));
  return (min_tail * 1000 + tail_permille - 1) / tail_permille;
}

std::vector<double> group_percentiles(const std::vector<double>& samples, std::size_t min_group,
                                      double p) {
  const std::size_t n = samples.size();
  const std::size_t groups = std::max<std::size_t>(1, n / std::max<std::size_t>(1, min_group));
  std::vector<double> out;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(g * n / groups);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>((g + 1) * n / groups);
    out.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return out;
}

double highest_reportable_percentile(std::size_t count, std::size_t min_tail) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (count >= samples_needed(p, min_tail)) best = p;
  }
  return best;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::vector<std::int64_t> self_time_by_name(const std::vector<Span>& spans, std::size_t names) {
  std::vector<std::int64_t> total(names, 0);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) total.at(spans[i].name) += self[i];
  return total;
}

void count_decision_mismatches(std::vector<DecisionKey>& expected,
                               std::vector<DecisionKey>& actual, Failures& failures) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < expected.size() || j < actual.size()) {
    if (j == actual.size() || (i < expected.size() && expected[i] < actual[j])) {
      ++failures.missing;
      ++i;
    } else if (i == expected.size() || actual[j] < expected[i]) {
      ++failures.extra;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

void write_report(const std::string& path, const Report& report) {
  std::ofstream out(path);
  for (const auto& [key, value] : report) out << key << '=' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

Report read_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing report " + path);
  Report report;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) report[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return report;
}

double report_number(const Report& report, const std::string& key) {
  const auto it = report.find(key);
  if (it == report.end()) throw std::runtime_error("report lacks " + key);
  return std::stod(it->second);
}

std::vector<double> report_list(const Report& report, const std::string& key) {
  std::vector<double> values;
  const auto it = report.find(key);
  if (it == report.end()) return values;
  std::stringstream in(it->second);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  return values;
}

std::string join_numbers(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t i = 0; i < values.size(); ++i) out << (i ? "," : "") << values[i];
  return out.str();
}

int spawn_self(const std::vector<std::string>& args, const std::vector<std::pair<int, int>>& fds) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // Child numbers are below kFirstParentFd and every source is a make_pipe
  // descriptor above it, so a dup2 never clobbers a source that a later
  // dup2 still needs; dup2 also clears the close-on-exec flag on the copy.
  for (const auto& [parent_fd, child_fd] : fds) {
    posix_spawn_file_actions_adddup2(&actions, parent_fd, child_fd);
  }
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> copies = args;
  for (std::string& arg : copies) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("posix_spawn failed");
  return pid;
}

bool wait_all(const std::vector<int>& pids, std::int64_t deadline_ns) {
  std::vector<int> pending = pids;
  bool ok = true;
  while (!pending.empty()) {
    for (auto it = pending.begin(); it != pending.end();) {
      int status = 0;
      const pid_t done = waitpid(*it, &status, WNOHANG);
      if (done == *it) {
        ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (pending.empty()) break;
    if (now_ns() > deadline_ns) {
      for (const int pid : pending) kill(pid, SIGKILL);
      for (const int pid : pending) waitpid(pid, nullptr, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ok;
}

void make_pipe(int fds[2]) {
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  for (int i = 0; i < 2; ++i) {
    const int moved = fcntl(fds[i], F_DUPFD_CLOEXEC, kFirstParentFd);
    if (moved < 0) throw std::runtime_error("cannot move a pipe descriptor");
    ::close(fds[i]);
    fds[i] = moved;
  }
}

void exit_with_parent() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) std::_Exit(3);  // the parent is already gone
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace perfbench
