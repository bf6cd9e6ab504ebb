#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/span_tracer.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace lsg {
namespace net {

namespace {

constexpr int kListenBacklog = 128;                  // listen(2) backlog
constexpr size_t kMaxOutbufBytes = 4 * 1024 * 1024;  // slow-reader cutoff
constexpr int kCompletionWaiters = 4;  // threads bridging futures -> loop

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, ErrnoString(errno).c_str()));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

}  // namespace

DispatchOutcome ServiceDispatcher::Dispatch(GenerationRequest request) {
  DispatchOutcome out;
  auto future = service_->TrySubmit(std::move(request));
  if (future.ok()) {
    out.future = std::move(*future);
    return out;
  }
  out.message = future.status().message();
  switch (future.status().code()) {
    case StatusCode::kResourceExhausted:
      out.error = NetError::kQueueFull;
      break;
    case StatusCode::kFailedPrecondition:
      out.error = NetError::kDraining;
      break;
    default:
      out.error = NetError::kInternal;
  }
  return out;
}

/// Cached handles for every net.* metric, bound once at server creation.
struct NetServer::Metrics {
  explicit Metrics(obs::MetricsRegistry* r)
      : conn_accepted(r->GetCounter("net.conn.accepted")),
        conn_closed(r->GetCounter("net.conn.closed")),
        conn_refused(r->GetCounter("net.conn.refused")),
        conn_idle_closed(r->GetCounter("net.conn.idle_closed")),
        conn_overflow_closed(r->GetCounter("net.conn.overflow_closed")),
        conn_error_closed(r->GetCounter("net.conn.error_closed")),
        req_received(r->GetCounter("net.req.received")),
        req_pings(r->GetCounter("net.req.pings")),
        req_ok(r->GetCounter("net.req.ok")),
        req_dispatched(r->GetCounter("net.req.dispatched")),
        req_bad_frame(r->GetCounter("net.req.bad_frame")),
        req_oversized(r->GetCounter("net.req.oversized")),
        req_bad_request(r->GetCounter("net.req.bad_request")),
        req_over_quota(r->GetCounter("net.req.over_quota")),
        req_over_inflight(r->GetCounter("net.req.over_inflight")),
        req_queue_full(r->GetCounter("net.req.queue_full")),
        req_draining(r->GetCounter("net.req.draining")),
        req_timeout(r->GetCounter("net.req.timeout")),
        req_internal(r->GetCounter("net.req.internal")),
        req_orphaned(r->GetCounter("net.req.orphaned")),
        req_late(r->GetCounter("net.req.late")),
        loop_polls(r->GetCounter("net.loop.polls")),
        loop_wakeups(r->GetCounter("net.loop.wakeups")),
        conn_open(r->GetGauge("net.conn.open")),
        req_inflight(r->GetGauge("net.req.inflight")),
        parse_ns(r->GetHistogram("net.req.parse_ns")),
        dispatch_ns(r->GetHistogram("net.req.dispatch_ns")),
        e2e_ns(r->GetHistogram("net.req.e2e_ns")) {}

  obs::Counter& conn_accepted;
  obs::Counter& conn_closed;
  obs::Counter& conn_refused;
  obs::Counter& conn_idle_closed;
  obs::Counter& conn_overflow_closed;
  obs::Counter& conn_error_closed;
  obs::Counter& req_received;
  obs::Counter& req_pings;
  obs::Counter& req_ok;
  obs::Counter& req_dispatched;
  obs::Counter& req_bad_frame;
  obs::Counter& req_oversized;
  obs::Counter& req_bad_request;
  obs::Counter& req_over_quota;
  obs::Counter& req_over_inflight;
  obs::Counter& req_queue_full;
  obs::Counter& req_draining;
  obs::Counter& req_timeout;
  obs::Counter& req_internal;
  obs::Counter& req_orphaned;
  obs::Counter& req_late;
  obs::Counter& loop_polls;
  obs::Counter& loop_wakeups;
  obs::Gauge& conn_open;
  obs::Gauge& req_inflight;
  obs::Histogram& parse_ns;
  obs::Histogram& dispatch_ns;
  obs::Histogram& e2e_ns;

  /// The response counter for one structured error (conservation: every
  /// received frame bumps exactly one of ok/pings/these/orphaned).
  obs::Counter& ErrorCounter(NetError e) {
    switch (e) {
      case NetError::kBadFrame: return req_bad_frame;
      case NetError::kFrameTooLarge: return req_oversized;
      case NetError::kBadRequest: return req_bad_request;
      case NetError::kOverQuota: return req_over_quota;
      case NetError::kOverInflight: return req_over_inflight;
      case NetError::kQueueFull: return req_queue_full;
      case NetError::kDraining: return req_draining;
      case NetError::kTimeout: return req_timeout;
      default: return req_internal;
    }
  }
};

NetServer::NetServer(RequestDispatcher* dispatcher,
                     const NetServerOptions& options)
    : dispatcher_(dispatcher),
      options_(options),
      owned_registry_(options.metrics_registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(options.metrics_registry != nullptr
                    ? options.metrics_registry
                    : owned_registry_.get()),
      admission_(options.admission),
      m_(std::make_unique<Metrics>(registry_)) {}

NetServer::~NetServer() {
  BeginDrain();
  Join();
  Teardown();
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  if (wake_write_fd_ >= 0) {
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
}

StatusOr<std::unique_ptr<NetServer>> NetServer::Create(
    RequestDispatcher* dispatcher, const NetServerOptions& options) {
  if (dispatcher == nullptr) {
    return Status::InvalidArgument("NetServer needs a dispatcher");
  }
  std::unique_ptr<NetServer> server(new NetServer(dispatcher, options));
  LSG_RETURN_IF_ERROR(server->poller_.Init());
  LSG_RETURN_IF_ERROR(server->Listen());

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Errno("pipe");
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  LSG_RETURN_IF_ERROR(SetNonBlocking(server->wake_read_fd_));
  LSG_RETURN_IF_ERROR(SetNonBlocking(server->wake_write_fd_));

  LSG_RETURN_IF_ERROR(server->poller_.Add(server->listen_fd_, true, false));
  LSG_RETURN_IF_ERROR(server->poller_.Add(server->wake_read_fd_, true, false));

  server->waiters_.reserve(kCompletionWaiters);
  for (int i = 0; i < kCompletionWaiters; ++i) {
    server->waiters_.emplace_back([s = server.get()] { s->WaiterMain(); });
  }
  return server;
}

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  LSG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (options_.host.empty() || options_.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
             1) {
    return Status::InvalidArgument(
        StrFormat("bad listen address \"%s\"", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

Status NetServer::Run() {
  LSG_LOG(Info) << "lsgserved listening on " << options_.host << ":"
                << port_;
  while (!done_) {
    Status st = LoopOnce();
    if (!st.ok()) {
      loop_status_ = st;
      break;
    }
  }
  Teardown();
  return loop_status_;
}

Status NetServer::Start() {
  loop_thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

Status NetServer::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
  return loop_status_;
}

void NetServer::BeginDrain() {
  // relaxed: a level-semantic flag; the loop re-reads it every poll cycle
  // and drain carries no payload that needs ordering (async-signal-safe).
  drain_requested_.store(true, std::memory_order_relaxed);
  WakeLoop();
}

void NetServer::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  char b = 'w';
  // A full pipe means the loop is already due to wake; dropping the byte
  // is fine (the wakeup is level-semantic, not a message).
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &b, 1);
}

int NetServer::ComputePollTimeoutMs(uint64_t now_ns) const {
  int timeout = 200;
  if (options_.request_timeout_ms > 0) {
    timeout = std::min(timeout, options_.request_timeout_ms / 4 + 1);
  }
  if (draining_) {
    uint64_t remaining =
        drain_deadline_ns_ > now_ns ? drain_deadline_ns_ - now_ns : 0;
    timeout = std::min(timeout,
                       static_cast<int>(remaining / 1000000) + 1);
    timeout = std::min(timeout, 50);
  }
  return timeout;
}

Status NetServer::LoopOnce() {
  uint64_t now = Stopwatch::NowNanos();
  // relaxed: pairs with the level-semantic store in BeginDrain.
  if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
    EnterDrain(now);
  }
  auto n = poller_.Wait(ComputePollTimeoutMs(now), &events_);
  if (!n.ok()) return n.status();
  m_->loop_polls.Inc();

  closed_in_batch_.clear();
  for (const PollEvent& event : events_) {
    if (std::find(closed_in_batch_.begin(), closed_in_batch_.end(),
                  event.fd) != closed_in_batch_.end()) {
      continue;
    }
    if (event.fd == listen_fd_) {
      AcceptReady();
      continue;
    }
    if (event.fd == wake_read_fd_) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
      m_->loop_wakeups.Inc();
      continue;
    }
    auto it = conns_.find(event.fd);
    if (it == conns_.end()) continue;
    HandleConnEvent(it->second.get(), event);
  }

  DrainCompletedQueue();
  now = Stopwatch::NowNanos();
  SweepTimeouts(now);
  // relaxed: pairs with the level-semantic store in BeginDrain.
  if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
    EnterDrain(now);
  }
  if (draining_) {
    if (DrainComplete()) {
      done_ = true;
    } else if (now >= drain_deadline_ns_) {
      LSG_LOG(Warning) << "drain deadline hit with " << pending_.size()
                    << " request(s) outstanding";
      for (const auto& [token, p] : pending_) {
        (void)token;
        admission_.Release(p.tenant);
        m_->req_orphaned.Inc();
      }
      pending_.clear();
      done_ = true;
    }
  }
  closed_conns_.clear();
  return Status::Ok();
}

void NetServer::AcceptReady() {
  LSG_OBS_SPAN("net.accept");
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error; poll again
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      m_->conn_refused.Inc();
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (!poller_.Add(fd, true, false).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>(fd, next_conn_id_++,
                                       options_.max_frame_bytes,
                                       Stopwatch::NowNanos());
    conns_by_id_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
    m_->conn_accepted.Inc();
    m_->conn_open.Set(static_cast<double>(conns_.size()));
  }
}

void NetServer::HandleConnEvent(Conn* conn, const PollEvent& event) {
  if (event.error) {
    CloseConn(conn, &m_->conn_error_closed);
    return;
  }
  if (event.writable) FlushConn(conn);
  if (conn->fd < 0) return;
  if (event.readable) ReadConn(conn);
}

void NetServer::ReadConn(Conn* conn) {
  char buf[16 * 1024];
  while (conn->fd >= 0) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_active_ns = Stopwatch::NowNanos();
      conn->fsm.Feed(std::string_view(buf, static_cast<size_t>(n)),
                     [this, conn](FrameEvent event, std::string_view payload) {
                       OnFrame(conn, event, payload);
                     });
      continue;
    }
    if (n == 0) {
      CloseConn(conn, nullptr);  // orderly remote close
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(conn, &m_->conn_error_closed);
    return;
  }
}

void NetServer::RespondError(Conn* conn, uint64_t id, NetError error,
                             std::string_view message) {
  m_->ErrorCounter(error).Inc();
  SendToConn(conn, EncodeError(id, error, message));
}

void NetServer::OnFrame(Conn* conn, FrameEvent event,
                        std::string_view payload) {
  if (conn->fd < 0) return;
  if (event == FrameEvent::kOversized) {
    RespondError(conn, 0, NetError::kFrameTooLarge,
                 StrFormat("request line exceeds %zu bytes",
                           options_.max_frame_bytes));
    return;
  }
  m_->req_received.Inc();
  uint64_t frame_ns = Stopwatch::NowNanos();

  NetError parse_error = NetError::kNone;
  StatusOr<NetRequest> parsed = [&] {
    obs::ScopedHistogramTimer timer(&m_->parse_ns);
    return ParseRequestFrame(payload, &parse_error);
  }();
  if (!parsed.ok()) {
    RespondError(conn, 0, parse_error, parsed.status().message());
    return;
  }

  if (parsed->ping) {
    m_->req_pings.Inc();
    SendToConn(conn, EncodePong(parsed->request.id));
    return;
  }
  if (draining_) {
    RespondError(conn, parsed->request.id, NetError::kDraining,
                 "server is draining");
    return;
  }
  NetError verdict = admission_.Admit(parsed->tenant, frame_ns);
  if (verdict != NetError::kNone) {
    RespondError(conn, parsed->request.id, verdict,
                 verdict == NetError::kOverQuota
                     ? StrFormat("tenant \"%s\" is over its request rate",
                                 parsed->tenant.c_str())
                     : "too many requests in flight");
    return;
  }

  DispatchOutcome outcome;
  {
    LSG_OBS_SPAN("net.dispatch");
    outcome = dispatcher_->Dispatch(parsed->request);
  }
  if (outcome.error != NetError::kNone) {
    admission_.Release(parsed->tenant);
    RespondError(conn, parsed->request.id, outcome.error, outcome.message);
    return;
  }

  uint64_t token = next_token_++;
  PendingRequest pending;
  pending.conn_id = conn->id;
  pending.client_id = parsed->request.id;
  pending.tenant = std::move(parsed->tenant);
  pending.frame_ns = frame_ns;
  if (options_.request_timeout_ms > 0) {
    pending.deadline_ns =
        frame_ns + static_cast<uint64_t>(options_.request_timeout_ms) *
                       1000000ull;
  }
  pending_.emplace(token, std::move(pending));
  ++conn->inflight;
  m_->req_dispatched.Inc();
  m_->req_inflight.Set(static_cast<double>(pending_.size()));
  m_->dispatch_ns.Record(Stopwatch::NowNanos() - frame_ns);

  {
    MutexLock lock(&feed_mu_);
    feed_.push_back(WaitItem{token, std::move(outcome.future)});
  }
  feed_cv_.NotifyOne();
}

void NetServer::SendToConn(Conn* conn, std::string data) {
  if (conn->fd < 0) return;
  conn->outbuf += data;
  if (conn->outbuf.size() - conn->out_off > kMaxOutbufBytes) {
    CloseConn(conn, &m_->conn_overflow_closed);
    return;
  }
  FlushConn(conn);
}

void NetServer::FlushConn(Conn* conn) {
  while (conn->fd >= 0 && conn->out_off < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                       conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn, &m_->conn_error_closed);
    return;
  }
  if (conn->fd < 0) return;
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
    if (draining_ && conn->inflight == 0) {
      // Response flushed and nothing else owed: finish the goodbye.
      CloseConn(conn, nullptr);
      return;
    }
  }
  UpdateWriteInterest(conn);
}

void NetServer::UpdateWriteInterest(Conn* conn) {
  if (conn->fd < 0) return;
  bool want = conn->out_off < conn->outbuf.size();
  if (want == conn->want_write) return;
  if (poller_.Mod(conn->fd, true, want).ok()) conn->want_write = want;
}

void NetServer::CloseConn(Conn* conn, obs::Counter* reason) {
  if (conn->fd < 0) return;
  int fd = conn->fd;
  poller_.Del(fd);
  ::close(fd);
  conn->fd = -1;
  if (reason != nullptr) reason->Inc();
  m_->conn_closed.Inc();
  conns_by_id_.erase(conn->id);
  auto it = conns_.find(fd);
  if (it != conns_.end()) {
    closed_conns_.push_back(std::move(it->second));
    conns_.erase(it);
  }
  closed_in_batch_.push_back(fd);
  m_->conn_open.Set(static_cast<double>(conns_.size()));
}

void NetServer::DrainCompletedQueue() {
  std::deque<CompletedItem> batch;
  {
    MutexLock lock(&completed_mu_);
    batch.swap(completed_);
  }
  for (CompletedItem& item : batch) {
    auto it = pending_.find(item.token);
    if (it == pending_.end()) {
      // Already resolved on this side (request timeout); bookkeeping only.
      m_->req_late.Inc();
      continue;
    }
    PendingRequest pending = std::move(it->second);
    pending_.erase(it);
    FinishRequest(item.token, pending, std::move(item.response));
  }
  m_->req_inflight.Set(static_cast<double>(pending_.size()));
}

void NetServer::FinishRequest(uint64_t token, const PendingRequest& pending,
                              GenerationResponse response) {
  (void)token;
  admission_.Release(pending.tenant);
  m_->e2e_ns.Record(Stopwatch::NowNanos() - pending.frame_ns);

  auto it = conns_by_id_.find(pending.conn_id);
  if (it == conns_by_id_.end()) {
    // The connection died before its answer; the work still happened.
    m_->req_orphaned.Inc();
    return;
  }
  Conn* conn = it->second;
  if (conn->inflight > 0) --conn->inflight;

  if (!response.status.ok()) {
    NetError error = NetError::kInternal;
    if (response.status.code() == StatusCode::kInvalidArgument) {
      error = NetError::kBadRequest;
    } else if (response.status.code() == StatusCode::kFailedPrecondition) {
      error = NetError::kDraining;  // service shut down under the request
    }
    RespondError(conn, response.id, error, response.status.message());
    return;
  }
  m_->req_ok.Inc();
  SendToConn(conn, EncodeResponse(response, pending.tenant,
                                  options_.include_sql));
}

void NetServer::SweepTimeouts(uint64_t now_ns) {
  if (options_.idle_timeout_ms > 0) {
    uint64_t horizon =
        static_cast<uint64_t>(options_.idle_timeout_ms) * 1000000ull;
    std::vector<Conn*> idle;
    for (auto& [fd, conn] : conns_) {
      (void)fd;
      if (conn->inflight == 0 && conn->out_off == conn->outbuf.size() &&
          now_ns - conn->last_active_ns > horizon) {
        idle.push_back(conn.get());
      }
    }
    for (Conn* conn : idle) CloseConn(conn, &m_->conn_idle_closed);
  }

  if (options_.request_timeout_ms > 0) {
    std::vector<uint64_t> expired;
    for (const auto& [token, pending] : pending_) {
      if (pending.deadline_ns != 0 && now_ns > pending.deadline_ns) {
        expired.push_back(token);
      }
    }
    for (uint64_t token : expired) {
      auto it = pending_.find(token);
      PendingRequest pending = std::move(it->second);
      pending_.erase(it);
      admission_.Release(pending.tenant);
      auto cit = conns_by_id_.find(pending.conn_id);
      if (cit != conns_by_id_.end()) {
        Conn* conn = cit->second;
        if (conn->inflight > 0) --conn->inflight;
        RespondError(conn, pending.client_id, NetError::kTimeout,
                     "request deadline exceeded");
      } else {
        m_->req_timeout.Inc();  // conn already gone; count it anyway
      }
    }
    if (!expired.empty()) {
      m_->req_inflight.Set(static_cast<double>(pending_.size()));
    }
  }
}

void NetServer::EnterDrain(uint64_t now_ns) {
  draining_ = true;
  drain_deadline_ns_ =
      now_ns +
      static_cast<uint64_t>(std::max(options_.drain_timeout_ms, 1)) *
          1000000ull;
  if (listen_fd_ >= 0) {
    poller_.Del(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  LSG_LOG(Info) << "draining: " << pending_.size() << " in-flight, "
                << conns_.size() << " connection(s)";
  std::vector<Conn*> closable;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->inflight == 0 && conn->out_off == conn->outbuf.size()) {
      closable.push_back(conn.get());
    }
  }
  for (Conn* conn : closable) CloseConn(conn, nullptr);
}

bool NetServer::DrainComplete() const {
  if (!pending_.empty()) return false;
  for (const auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->out_off < conn->outbuf.size()) return false;
  }
  return true;
}

void NetServer::WaiterMain() {
  while (true) {
    WaitItem item;
    {
      MutexLock lock(&feed_mu_);
      while (!feed_closed_ && feed_.empty()) feed_cv_.Wait(feed_mu_);
      if (feed_.empty()) return;  // closed and drained
      item = std::move(feed_.front());
      feed_.pop_front();
    }
    CompletedItem done;
    done.token = item.token;
    try {
      done.response = item.future.get();
    } catch (...) {
      // A broken promise means the dispatcher dropped a request on the
      // floor; surface it as an internal error instead of hanging.
      done.response.status = Status::Internal("response promise broken");
    }
    {
      MutexLock lock(&completed_mu_);
      completed_.push_back(std::move(done));
    }
    WakeLoop();
  }
}

void NetServer::Teardown() {
  if (torn_down_) return;
  torn_down_ = true;
  done_ = true;
  {
    MutexLock lock(&feed_mu_);
    feed_closed_ = true;
  }
  feed_cv_.NotifyAll();
  for (std::thread& t : waiters_) {
    if (t.joinable()) t.join();
  }
  // Whatever completed after the loop exited is orphaned by definition.
  DrainCompletedQueue();
  for (const auto& [token, pending] : pending_) {
    (void)token;
    admission_.Release(pending.tenant);
    m_->req_orphaned.Inc();
  }
  pending_.clear();
  std::vector<Conn*> open;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    open.push_back(conn.get());
  }
  for (Conn* conn : open) CloseConn(conn, nullptr);
  closed_conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The wakeup pipe deliberately outlives teardown: BeginDrain is allowed
  // from any thread (or a signal handler) for the whole object lifetime,
  // and its write(2) must never race a close here on the loop thread. The
  // destructor closes both ends once no caller can hold the object.
}

}  // namespace net
}  // namespace lsg
