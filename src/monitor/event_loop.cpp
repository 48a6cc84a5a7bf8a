#include "monitor/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <utility>

namespace rejuv::monitor {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if ((flags & O_NONBLOCK) != 0) return true;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    error_ = std::string("epoll_create1: ") + ::strerror(errno);
  }
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::add(int fd, std::uint32_t events, Callback callback) {
  if (epoll_fd_ < 0) return false;
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    const int error = errno;
    error_ = std::string("epoll_ctl(ADD): ") + ::strerror(error);
    errno = error;
    return false;
  }
  callbacks_[fd] = std::move(callback);
  return true;
}

bool EventLoop::modify(int fd, std::uint32_t events) {
  if (epoll_fd_ < 0 || callbacks_.find(fd) == callbacks_.end()) return false;
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    error_ = std::string("epoll_ctl(MOD): ") + ::strerror(errno);
    return false;
  }
  return true;
}

void EventLoop::remove(int fd) {
  if (callbacks_.erase(fd) == 0) return;
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::poll(std::chrono::milliseconds timeout) {
  if (epoll_fd_ < 0) return -1;
  std::array<struct epoll_event, 256> ready;
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, ready.data(), static_cast<int>(ready.size()),
                     static_cast<int>(timeout.count()));
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    error_ = std::string("epoll_wait: ") + ::strerror(errno);
    return -1;
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = ready[static_cast<std::size_t>(i)].data.fd;
    // Re-check registration: an earlier callback this round may have
    // removed this fd (e.g. the listener closed a misbehaving client).
    auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;
    // Copy the handle: the callback may remove itself, invalidating `it`.
    Callback callback = it->second;
    callback(fd, ready[static_cast<std::size_t>(i)].events);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace rejuv::monitor
