#include "net/event_loop.h"

#include <cerrno>

#include <sys/epoll.h>
#include <unistd.h>

#include "common/string_util.h"

namespace lsg {
namespace net {
namespace {

constexpr int kMaxEvents = 128;

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

Status Poller::Init() const {
  if (epfd_ < 0) {
    return Status::Internal(
        StrFormat("epoll_create1: %s", ErrnoString(errno).c_str()));
  }
  return Status::Ok();
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  return Ctl(EPOLL_CTL_ADD, fd, want_read, want_write);
}

Status Poller::Mod(int fd, bool want_read, bool want_write) {
  return Ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void Poller::Del(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

StatusOr<int> Poller::Wait(int timeout_ms, std::vector<PollEvent>* out) {
  out->clear();
  epoll_event events[kMaxEvents];
  int n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Status::Internal(
        StrFormat("epoll_wait: %s", ErrnoString(errno).c_str()));
  }
  out->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent e;
    e.fd = events[i].data.fd;
    e.readable = (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(e);
  }
  return n;
}

Status Poller::Ctl(int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(fd=%d): %s", fd, ErrnoString(errno).c_str()));
  }
  return Status::Ok();
}

}  // namespace net
}  // namespace lsg
