#ifndef LEARNEDSQLGEN_NET_EVENT_LOOP_H_
#define LEARNEDSQLGEN_NET_EVENT_LOOP_H_

#include <vector>

#include "common/status.h"

namespace lsg {
namespace net {

/// One readiness event from Poller::Wait.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  ///< EPOLLERR/EPOLLHUP-class condition
};

/// Readiness notification for the single-threaded event loop: a
/// level-triggered epoll instance. The interface is what the server needs
/// — add/re-arm/remove one fd and wait — not a general reactor.
class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Whether the epoll instance was created; every other call fails
  /// when it was not.
  Status Init() const;

  Status Add(int fd, bool want_read, bool want_write);
  Status Mod(int fd, bool want_read, bool want_write);
  void Del(int fd);

  /// Blocks up to timeout_ms (-1 = indefinitely) and appends ready fds to
  /// `out` (cleared first). Returns the number of events, 0 on timeout.
  StatusOr<int> Wait(int timeout_ms, std::vector<PollEvent>* out);

 private:
  Status Ctl(int op, int fd, bool want_read, bool want_write);

  int epfd_;
};

}  // namespace net
}  // namespace lsg

#endif  // LEARNEDSQLGEN_NET_EVENT_LOOP_H_
