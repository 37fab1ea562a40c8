#ifndef JUGGLER_NET_HTTP_SERVER_H_
#define JUGGLER_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/http.h"
#include "net/poller.h"
#include "service/thread_pool.h"

namespace juggler::net {

/// \brief Non-blocking TCP/HTTP 1.1 front end: one event-loop thread (epoll,
/// poll fallback) for all connection I/O plus a bounded handler pool for
/// request execution.
///
/// Threading model:
///  - The loop thread accepts, reads, parses, writes, and sweeps idle
///    connections. Connection state belongs to it exclusively — no locks on
///    the I/O path.
///  - A complete request is either answered inline by the optional
///    `FastHandler` (CPU-only work of a few microseconds: health checks,
///    cache hits, resident-model evaluations) or dispatched to the handler
///    pool. The pool thread runs the `Handler`,
///    serializes the response, and hands the bytes back to the loop through
///    a mutex-guarded completion list + wake pipe.
///  - Per connection, at most one request is in the handler at a time;
///    pipelined requests wait in the connection's parse buffer, so responses
///    always leave in request order.
///
/// Backpressure contract (the RecommendationService policy, preserved at the
/// socket edge): when the handler pool's bounded queue is full the server
/// responds 503 with Retry-After immediately — it never parks a request in
/// an unbounded queue, never hangs the client, and never drops the
/// connection without a response. A handler that returns a 503 itself
/// (ResourceExhausted from downstream) is passed through the same way.
class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read back with port().
    int num_handler_threads = 4;
    /// Requests parked waiting for a handler thread; when full, new
    /// requests get an immediate 503.
    size_t dispatch_queue_capacity = 256;
    HttpParser::Limits limits;
    /// Connections with no traffic and no request in flight for this long
    /// are closed by the sweeper.
    int idle_timeout_ms = 30'000;
    /// Slow-client guard, distinct from the idle sweep (which trickled bytes
    /// reset): once the first byte of a request has arrived, the complete
    /// request must parse within this deadline or the connection is answered
    /// 408 and closed. <= 0 disables.
    int header_read_timeout_ms = 10'000;
    /// Once response bytes are queued, the client must drain them within
    /// this deadline or the connection is closed. <= 0 disables.
    int write_timeout_ms = 10'000;
    size_t max_connections = 1024;
    /// Use the portable poll(2) backend even where epoll is available.
    bool force_poll = false;
  };

  /// Runs on a handler-pool thread; may block (e.g. on a model evaluation).
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Optional fast path, run on the event-loop thread before dispatching.
  /// Return a response to answer inline, or nullopt to fall through to the
  /// pool. Every connection waits while it runs, so it must not block: no
  /// disk or network I/O, no waiting on other threads — only CPU work of a
  /// few microseconds (trivial GETs, cache hits, resident-model
  /// evaluations).
  using FastHandler =
      std::function<std::optional<HttpResponse>(const HttpRequest&)>;

  struct Stats {
    uint64_t accepted = 0;           ///< Connections accepted.
    uint64_t active = 0;             ///< Currently open connections.
    uint64_t requests = 0;           ///< Complete requests parsed.
    uint64_t fast_path = 0;          ///< Answered inline on the loop thread.
    uint64_t overload_rejected = 0;  ///< 503s from a full dispatch queue.
    uint64_t parse_errors = 0;       ///< 400/413/501 protocol rejections.
    uint64_t idle_closed = 0;        ///< Connections reaped by idle timeout.
    uint64_t slow_read_closed = 0;   ///< 408s to clients stalling mid-request.
    uint64_t slow_write_closed = 0;  ///< Closes on clients not draining writes.
  };

  HttpServer(const Options& options, Handler handler,
             FastHandler fast_handler = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the loop + handler threads. Errors:
  /// Internal (socket/bind failures), InvalidArgument (bad host),
  /// FailedPrecondition (already started).
  [[nodiscard]] Status Start() EXCLUDES(mu_);

  /// Graceful stop: closes the listener and every connection, joins the
  /// loop thread, then drains and joins the handler pool. Idempotent.
  void Stop() EXCLUDES(mu_);

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return bound_port_; }

  /// "epoll" or "poll" (valid after a successful Start()).
  const std::string& backend() const { return backend_; }

  Stats GetStats() const;

 private:
  /// Per-connection state. Owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    HttpParser parser;
    std::string out;                ///< Bytes awaiting write.
    bool handler_inflight = false;  ///< A request is in the pool right now.
    bool close_after_write = false;
    bool read_closed = false;  ///< Peer half-closed or poisoned parser.
    /// Flood guard engaged: the parse buffer holds more than one maximal
    /// request beyond the in-flight one, so reads wait for completions.
    bool read_paused = false;
    bool reg_read = true;      ///< EPOLLIN currently registered.
    bool want_write = false;   ///< EPOLLOUT currently registered.
    std::chrono::steady_clock::time_point last_activity;
    /// Deadline anchors (epoch == disarmed): `read_start` is when the first
    /// byte of the current partial request arrived; `write_start` is when
    /// `out` last went empty -> non-empty. Trickled bytes refresh
    /// last_activity but not these, which is what catches slowloris.
    std::chrono::steady_clock::time_point read_start{};
    std::chrono::steady_clock::time_point write_start{};

    explicit Connection(const HttpParser::Limits& limits)
        : parser(limits) {}
  };

  /// A finished handler invocation travelling back to the loop thread.
  struct Completion {
    uint64_t connection_id = 0;
    std::string bytes;  ///< Fully serialized response.
    bool keep_alive = true;
  };

  void LoopMain();
  void WakeLoop();
  void AcceptPending();
  void HandleConnectionEvent(const Poller::Event& event);
  /// Parses as many buffered requests as can be answered or dispatched now.
  void PumpRequests(Connection* conn);
  void DispatchToPool(Connection* conn, HttpRequest request);
  /// Flushes the write buffer; adjusts write interest; may close `conn`.
  void FlushWrites(Connection* conn);
  void ApplyCompletions() EXCLUDES(mu_);
  void SweepIdle();
  /// Enforces header-read and response-write deadlines (slow-client guard).
  void SweepDeadlines();
  void CloseConnection(uint64_t id);
  Connection* FindConnection(uint64_t id);

  const Options options_;
  const Handler handler_;
  const FastHandler fast_handler_;

  // Immutable after Start().
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::string backend_;

  // Loop-thread-only state (no locks: single writer, single reader).
  std::unique_ptr<Poller> poller_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  std::map<int, uint64_t> connection_by_fd_;
  uint64_t next_connection_id_ = 1;

  std::unique_ptr<service::ThreadPool> pool_;
  std::thread loop_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  /// Lock class "net.HttpServer.completions" (rank net=10): the outermost
  /// layer of the lock order — pool workers take it *after* releasing every
  /// service-layer lock (the handler has fully returned), and the loop
  /// thread holds it only to swap the vector.
  mutable Mutex mu_ ACQUIRED_BEFORE(lockdiag::kServiceOrder);
  std::vector<Completion> completions_ GUARDED_BY(mu_);

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> fast_path_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> slow_read_closed_{0};
  std::atomic<uint64_t> slow_write_closed_{0};
};

}  // namespace juggler::net

#endif  // JUGGLER_NET_HTTP_SERVER_H_
