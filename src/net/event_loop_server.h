#ifndef JUGGLER_NET_EVENT_LOOP_SERVER_H_
#define JUGGLER_NET_EVENT_LOOP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/poller.h"
#include "service/thread_pool.h"

namespace juggler::net {

/// The one size rule for loop-thread answers, on both edges, checked before
/// any parse: a request whose HTTP body or JRPC payload is at most this many
/// bytes may be answered on the event loop (when its work is resident); a
/// larger one goes to the handler pool, whatever it holds. The worst inline
/// request at the cap is a recommend batch of distinct cold slots, every one
/// a model evaluation: 56-57 slots take 0.17-0.24 ms of loop time (~4 µs a
/// slot; bench_micro BM_InlineBatchAtCap, 4-vCPU VM), under a quarter of a
/// 1 ms p99 target. Typical batches (~0.7 KB, 8 slots) and observation
/// bodies (~1 KB) fit well under it.
inline constexpr size_t kInlineBodyBytes = 4096;

/// \brief Non-blocking TCP server core shared by both network edges (the
/// HTTP API and the JRPC shard port): one event-loop thread (epoll, poll
/// fallback) for all connection I/O plus a bounded handler pool for request
/// execution. The wire protocol is a `Codec`; the loop never looks at bytes.
///
/// Threading model:
///  - The loop thread accepts, reads, decodes, writes, and sweeps
///    connections. Connection state belongs to it exclusively — no locks on
///    the I/O path.
///  - A complete request is answered inline by the codec (CPU-only work of
///    a few microseconds), deferred, or turned into a job for the handler
///    pool. The pool thread runs the job and hands the reply bytes back to
///    the loop through a mutex-guarded completion list + wake pipe.
///  - A deferred request is answered later *on the loop thread*, from I/O
///    the loop drives for an optional `LoopAgent` (the router's pipelined
///    shard connections live in this same poller); no thread hop at all.
///  - Per connection, at most one request is in flight (in the pool or
///    deferred) at a time; pipelined requests wait in the connection's
///    decode buffer, so replies always leave in request order.
///
/// Hostile-input guarantees, identical on every edge:
///  - a full dispatch queue (or the connection limit) gets the codec's
///    overload reply immediately — no request is parked unboundedly, no
///    client hangs, no connection drops without a reply;
///  - a decode error gets the codec's protocol-error reply, then a close;
///  - flood guard: reads pause while a connection buffers more than
///    `Codec::read_pause_bytes()`;
///  - idle connections are swept; a client stalling mid-request gets the
///    codec's slow-read reply and a close; one not draining its replies is
///    closed.
class EventLoopServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read back with port().
    int num_handler_threads = 4;
    /// Requests parked waiting for a handler thread; when full, new
    /// requests get the overload reply at once.
    size_t dispatch_queue_capacity = 256;
    /// Connections with no traffic and no request in flight for this long
    /// are closed by the sweeper.
    int idle_timeout_ms = 30'000;
    /// Slow-client guard, distinct from the idle sweep (which trickled bytes
    /// reset): once the first byte of a request has arrived, the complete
    /// request must decode within this deadline or the connection gets the
    /// slow-read reply and is closed. <= 0 disables.
    int header_read_timeout_ms = 10'000;
    /// Once reply bytes are queued, the client must drain them within this
    /// deadline or the connection is closed. <= 0 disables.
    int write_timeout_ms = 10'000;
    size_t max_connections = 1024;
    /// Use the portable poll(2) backend even where epoll is available.
    bool force_poll = false;
  };

  struct Stats {
    uint64_t accepted = 0;           ///< Connections accepted.
    uint64_t active = 0;             ///< Currently open connections.
    uint64_t requests = 0;           ///< Complete requests decoded.
    /// Answered on the loop thread without a handler-pool hop: inline, or
    /// deferred and completed by the loop (router forwards). On the HTTP
    /// edges that is probes, resident recommend singles and batches, and
    /// observations; on the JRPC edge pings, resident kRecommend and
    /// kObserve frames.
    uint64_t fast_path = 0;
    uint64_t overload_rejected = 0;  ///< Overload replies (queue or conns).
    uint64_t parse_errors = 0;       ///< Protocol errors (connection closed).
    uint64_t idle_closed = 0;        ///< Connections reaped by idle timeout.
    uint64_t slow_read_closed = 0;   ///< Clients stalling mid-request.
    uint64_t slow_write_closed = 0;  ///< Clients not draining replies.
  };

  /// Turns one request into its reply bytes on a handler-pool thread; may
  /// block (e.g. on a model evaluation or a downstream call).
  using Job = std::function<std::string()>;

  /// \brief Handle to one deferred request: Reply() sends its answer. Loop
  /// thread only, at most once; a reply for a connection that has closed
  /// meanwhile is dropped.
  class Deferred {
   public:
    Deferred(EventLoopServer* server, uint64_t connection_id)
        : server_(server), connection_id_(connection_id) {}
    void Reply(std::string bytes) const {
      server_->ReplyDeferred(connection_id_, std::move(bytes));
    }

   private:
    EventLoopServer* server_;
    uint64_t connection_id_;
  };

  /// \brief Descriptors and deadlines the loop thread drives besides its own
  /// connections — the router's non-blocking shard connections, whose
  /// replies complete Deferred requests. Every call is on the loop thread.
  class LoopAgent {
   public:
    virtual ~LoopAgent() = default;
    /// Before the first wait: the poller the agent registers its
    /// descriptors with (Add/Update/Remove; never Wait).
    virtual void OnStart(Poller* poller) = 0;
    /// Readiness of a descriptor that is not one of the server's own.
    virtual void OnEvent(const Poller::Event& event) = 0;
    /// After each batch of events and pool completions: flush the writes
    /// the batch queued, expire deadlines.
    virtual void AfterEvents() = 0;
    /// Loop exit: close every descriptor (deferred requests die with their
    /// connections).
    virtual void OnStop() = 0;
  };

  /// \brief One connection's side of the protocol: decodes the bytes the
  /// loop feeds it and frames the replies. Owned and touched by the loop
  /// thread only. After Next() returns kRequest, the calls below refer to
  /// that request until the next Next().
  class Decoder {
   public:
    enum class State { kNeedMore, kRequest, kError };

    virtual ~Decoder() = default;
    virtual void Append(const char* data, size_t size) = 0;
    virtual size_t buffered_bytes() const = 0;
    /// Decodes the next buffered request. kError poisons the decoder.
    virtual State Next() = 0;
    /// False when the connection closes after this request's reply. Before
    /// any request it is false, so a refused connection is told to close.
    virtual bool keep_alive() const = 0;
    enum class Answer {
      kInline,    ///< The reply was appended to `out`.
      kDeferred,  ///< `deferred.Reply()` sends it later (or already did).
      kPool,      ///< Send the request to the pool (TakeJob()).
    };
    /// Answers the request on the loop thread if it can. Must not block.
    virtual Answer AnswerInline(const Deferred& deferred, std::string* out) = 0;
    /// Moves the request into the job that answers it on the pool.
    virtual Job TakeJob() = 0;
    /// Appends the reply to a request the full pool cannot take (before
    /// any request: to a connection over the limit).
    virtual void AppendOverload(std::string* out) const = 0;
    /// Appends the reply to the decode error Next() reported.
    virtual void AppendProtocolError(std::string* out) const = 0;
    /// Appends the reply to a client that stalled mid-request.
    virtual void AppendSlowRead(std::string* out) const = 0;
  };

  /// \brief The per-protocol half of a server, shared by all connections
  /// and by the jobs on the pool (so it must be immutable once built).
  class Codec {
   public:
    virtual ~Codec() = default;
    virtual std::unique_ptr<Decoder> NewDecoder() const = 0;
    /// Flood guard: reads pause while a connection buffers more than this,
    /// i.e. more than one maximal request beyond the in-flight one.
    virtual size_t read_pause_bytes() const = 0;
  };

  /// `agent` (optional, not owned) must outlive the server.
  EventLoopServer(const Options& options, std::unique_ptr<const Codec> codec,
                  LoopAgent* agent = nullptr);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

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
    std::unique_ptr<Decoder> decoder;
    std::string out;                ///< Bytes awaiting write.
    /// A request is in the pool or deferred right now.
    bool handler_inflight = false;
    /// Close once `out` drains and nothing is in flight.
    bool close_after_write = false;
    bool read_closed = false;  ///< Peer half-closed or poisoned decoder.
    /// Flood guard engaged: reads wait for completions to drain the buffer.
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
  };

  /// A finished job travelling back to the loop thread.
  struct Completion {
    uint64_t connection_id = 0;
    std::string bytes;
  };

  void LoopMain();
  void WakeLoop();
  void AcceptPending();
  void HandleConnectionEvent(const Poller::Event& event, uint64_t id);
  /// Decodes as many buffered requests as can be answered or dispatched now.
  void PumpRequests(Connection* conn);
  void DispatchToPool(Connection* conn);
  /// Delivers the in-flight request's reply and resumes the connection.
  void FinishInflight(Connection* conn, std::string bytes);
  void ReplyDeferred(uint64_t connection_id, std::string bytes);
  /// Flushes the write buffer; adjusts write interest; may close `conn`.
  void FlushWrites(Connection* conn);
  void ApplyCompletions() EXCLUDES(mu_);
  /// Closes idle connections and enforces the header-read and
  /// response-write deadlines (slow-client guard).
  void SweepConnections();
  void CloseConnection(uint64_t id);
  Connection* FindConnection(uint64_t id);

  const Options options_;
  const std::unique_ptr<const Codec> codec_;
  LoopAgent* const agent_;

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
  /// The connection PumpRequests() is decoding (0: none); a deferred reply
  /// sent from inside it leaves the resuming to that pump.
  uint64_t pumping_id_ = 0;

  std::unique_ptr<service::ThreadPool> pool_;
  std::thread loop_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  /// Lock class "net.EventLoopServer.completions" (rank net=10), one class
  /// for both edges: the outermost layer of the lock order — pool workers
  /// take it *after* the job has returned (every service/cluster lock
  /// released), and the loop thread holds it only to swap the vector.
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

#endif  // JUGGLER_NET_EVENT_LOOP_SERVER_H_
