#ifndef LEARNEDSQLGEN_NET_SERVER_H_
#define LEARNEDSQLGEN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/admission.h"
#include "net/event_loop.h"
#include "net/frame_fsm.h"
#include "net/protocol.h"
#include "obs/metrics_registry.h"
#include "service/generation_service.h"

namespace lsg {
namespace net {

/// Outcome of handing one request to the backend: either a future that
/// will become ready with the response, or a structured rejection.
struct DispatchOutcome {
  NetError error = NetError::kNone;
  std::string message;                        ///< detail for error responses
  std::future<GenerationResponse> future;     ///< valid when error == kNone
};

/// The server's view of a backend. GenerationService is the production
/// implementation (ServiceDispatcher below); tests substitute a manual
/// dispatcher to script queue-full, slow-completion and drain scenarios
/// deterministically.
class RequestDispatcher {
 public:
  virtual ~RequestDispatcher() = default;
  virtual DispatchOutcome Dispatch(GenerationRequest request) = 0;
};

/// Adapts GenerationService::TrySubmit: the fail-fast submit keeps the
/// event loop non-blocking, and its rejection reasons map onto protocol
/// errors (queue-full -> kQueueFull, shut-down -> kDraining).
class ServiceDispatcher : public RequestDispatcher {
 public:
  explicit ServiceDispatcher(GenerationService* service)
      : service_(service) {}
  DispatchOutcome Dispatch(GenerationRequest request) override;

 private:
  GenerationService* service_;
};

struct NetServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port back via port()
  int max_connections = 256;       ///< accepted sockets; excess are refused
  size_t max_frame_bytes = 64 * 1024;
  int idle_timeout_ms = 30000;     ///< close idle connections (<=0: never)
  int request_timeout_ms = 0;      ///< per-request deadline (<=0: none)
  int drain_timeout_ms = 10000;    ///< max graceful-drain wait
  bool include_sql = true;         ///< put generated SQL in responses
  AdmissionOptions admission;
  /// Registry for the net.* metrics; defaults to a private one. Point it
  /// at the service's registry to snapshot net.* and service.* together.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

/// Single-threaded epoll event-loop front end for the generation
/// service, speaking the line-delimited JSON protocol of net/protocol.h.
///
/// Loop-thread discipline: all sockets, connection state, the frame FSMs
/// and the admission controller are owned by the loop thread. Service
/// workers fulfill response futures on their own threads; a small pool of
/// completion waiters parks on those futures and forwards finished
/// responses through a mutex-guarded queue plus a wakeup pipe, so the
/// loop never blocks on a future and a worker never touches a socket.
///
/// Graceful drain (BeginDrain, async-signal-safe): stop accepting, answer
/// new requests with the `draining` error, finish writing every in-flight
/// response, then exit the loop. Forced exit after drain_timeout_ms
/// counts abandoned requests in net.req.orphaned — accounting stays
/// exact either way: net.req.received == responses written + orphaned.
class NetServer {
 public:
  /// Binds and listens (so port() is valid immediately) but does not
  /// serve until Run or Start. `dispatcher` must outlive the server and
  /// must keep fulfilling futures until Join/Run returns.
  static StatusOr<std::unique_ptr<NetServer>> Create(
      RequestDispatcher* dispatcher, const NetServerOptions& options);

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Runs the event loop on the calling thread until drain completes.
  /// Performs full teardown (joins completion waiters, closes sockets)
  /// before returning.
  Status Run();

  /// Runs the loop on a background thread; pair with Join().
  Status Start();
  Status Join();

  /// Begins graceful drain. Thread- and async-signal-safe (an atomic
  /// store plus one write(2) to the wakeup pipe); idempotent.
  void BeginDrain();

  int port() const { return port_; }
  const NetServerOptions& options() const { return options_; }
  obs::MetricsRegistry& registry() { return *registry_; }

  /// Loop-thread-only view used by the in-process tools; safe to call
  /// from other threads only after Run/Join returned.
  size_t open_connections() const { return conns_.size(); }

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;  ///< generation id; completions reference conns by id
    FrameFsm fsm;
    std::string outbuf;
    size_t out_off = 0;
    uint64_t last_active_ns = 0;
    int inflight = 0;  ///< dispatched requests still owing a response
    bool want_write = false;

    Conn(int socket, uint64_t conn_id, size_t max_frame, uint64_t now_ns)
        : fd(socket), id(conn_id), fsm(max_frame), last_active_ns(now_ns) {}
  };

  struct PendingRequest {
    uint64_t conn_id = 0;
    uint64_t client_id = 0;
    std::string tenant;
    uint64_t frame_ns = 0;     ///< frame-complete timestamp (e2e latency)
    uint64_t deadline_ns = 0;  ///< 0 = no deadline
  };

  struct WaitItem {
    uint64_t token = 0;
    std::future<GenerationResponse> future;
  };

  struct CompletedItem {
    uint64_t token = 0;
    GenerationResponse response;
  };

  NetServer(RequestDispatcher* dispatcher, const NetServerOptions& options);

  Status Listen();
  Status LoopOnce();      ///< one poll + event batch; sets done_ when over
  void AcceptReady();
  void HandleConnEvent(Conn* conn, const PollEvent& event);
  void ReadConn(Conn* conn);
  void OnFrame(Conn* conn, FrameEvent event, std::string_view payload);
  void RespondError(Conn* conn, uint64_t id, NetError error,
                    std::string_view message);
  void SendToConn(Conn* conn, std::string data);
  void FlushConn(Conn* conn);
  void UpdateWriteInterest(Conn* conn);
  void CloseConn(Conn* conn, obs::Counter* reason_counter);
  void DrainCompletedQueue();
  void FinishRequest(uint64_t token, const PendingRequest& pending,
                     GenerationResponse response);
  void SweepTimeouts(uint64_t now_ns);
  void EnterDrain(uint64_t now_ns);
  bool DrainComplete() const;
  int ComputePollTimeoutMs(uint64_t now_ns) const;
  void WakeLoop();
  void WaiterMain();
  void Teardown();

  RequestDispatcher* dispatcher_;
  NetServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  Poller poller_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  // Loop-thread state.
  std::map<int, std::unique_ptr<Conn>> conns_;          // by fd
  std::map<uint64_t, Conn*> conns_by_id_;
  /// Conns closed during this LoopOnce, freed at its end (and in
  /// Teardown): a handler that closed one may still read its fd.
  std::vector<std::unique_ptr<Conn>> closed_conns_;
  std::map<uint64_t, PendingRequest> pending_;          // by token
  AdmissionController admission_;
  std::vector<PollEvent> events_;
  std::vector<int> closed_in_batch_;  ///< fds closed while handling a batch
  uint64_t next_conn_id_ = 1;
  uint64_t next_token_ = 1;
  bool draining_ = false;
  uint64_t drain_deadline_ns_ = 0;
  bool done_ = false;
  bool torn_down_ = false;

  // Cross-thread state. Lock order: feed_mu_ and completed_mu_ are leaf
  // locks (nothing else is acquired while holding either), so the loop
  // thread and the waiter pool can never deadlock through them.
  std::atomic<bool> drain_requested_{false};
  Mutex feed_mu_;
  CondVar feed_cv_;
  std::deque<WaitItem> feed_ LSG_GUARDED_BY(feed_mu_);
  bool feed_closed_ LSG_GUARDED_BY(feed_mu_) = false;
  Mutex completed_mu_;
  std::deque<CompletedItem> completed_ LSG_GUARDED_BY(completed_mu_);
  std::vector<std::thread> waiters_;
  std::thread loop_thread_;
  Status loop_status_;

  // Cached metric handles (all under net.*; see README "Network serving").
  struct Metrics;
  std::unique_ptr<Metrics> m_;
};

}  // namespace net
}  // namespace lsg

#endif  // LEARNEDSQLGEN_NET_SERVER_H_
