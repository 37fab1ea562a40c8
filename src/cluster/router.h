#ifndef JUGGLER_CLUSTER_ROUTER_H_
#define JUGGLER_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cluster/hash_ring.h"
#include "net/http.h"
#include "net/http_server.h"
#include "rpc/frame.h"
#include "rpc/rpc_channel.h"
#include "service/metrics.h"

namespace juggler::cluster {

class LoopForwarder;

/// \brief What one client request asks of the shards, planned once from its
/// route and body: the shard calls ("legs") that answer it and how their
/// replies join into the HTTP reply. The router's one transport
/// (LoopForwarder) sends every leg at once — from the event loop, or from a
/// blocking caller's private loop (Router::ForwardAndWait) — and
/// JoinReplies() builds the reply either way.
///
/// The frame type picks each leg's shards (Router::LegWalk): a kApps leg
/// may ask every shard in index order, kReload leg i goes to shard i only,
/// and every other leg walks its route_key's ring preference order.
struct ForwardPlan {
  enum class Join {
    kSingle,   ///< One leg: its reply document verbatim (recommend, apps).
    kResults,  ///< A batch: {"results":[reply or error, ...]} in slot order.
    kShards,   ///< Observations and reload: {"shards":[{"app"|"shard":
               ///< route_key, "reply"|"error":..}]}.
  };
  struct Leg {
    /// Ring key: the slot's prediction-cache key, or the app of an
    /// observation group (so it reaches the shard that refits that app). A
    /// reload leg carries its shard's address here instead.
    std::string route_key;
    std::string payload;  ///< The frame payload, verbatim.
  };
  rpc::FrameType type = rpc::FrameType::kRecommend;
  Join join = Join::kSingle;
  std::vector<Leg> legs;
};

/// \brief Consistent-hash router over a fixed fleet of JRPC shards.
///
/// Each recommend question routes by hash of (app, params, machine) — the
/// same composite the prediction cache keys on, minus the model version —
/// so a recurring question always lands on the shard whose cache is warm
/// for it and whose lazy registry has its model resident.
///
/// One transport carries every forwarded request: a LoopForwarder, which
/// sends a ForwardPlan's legs over pipelined `rpc::RpcChannel`s, all in
/// flight at once, under one forwarding policy (`Walk`). The router's HTTP
/// event loop runs one; ForwardAndWait() runs the same class on a private
/// poller for blocking callers (RouterHttpServer::Handle(), ForwardRecommend).
///
/// Failure model:
///  - a background prober pings every shard on a fixed cadence over one
///    kept connection per shard and flips a per-shard healthy bit; routing
///    prefers healthy shards;
///  - a transport failure mid-request (dial, timeout, peer close, framing)
///    marks the shard unhealthy and reroutes the request to the next shard
///    in the key's preference order — the client sees one slower request,
///    not an error (the reroute counter records it);
///  - an application-level kError reply is returned as-is, never rerouted:
///    the shard answered, the request itself was bad;
///  - only when every attempted shard fails transport-wise does the caller
///    get an error (503-shaped: the condition is transient).
class Router {
 public:
  struct Options {
    /// Backend addresses, "host:port" each. Order defines shard indices.
    std::vector<std::string> shards;
    int rpc_timeout_ms = 5'000;
    int connect_timeout_ms = 1'000;
    int probe_interval_ms = 250;
    rpc::FrameDecoder::Limits limits;
  };

  /// Validates addresses. Start() launches the prober.
  static StatusOr<std::unique_ptr<Router>> Create(const Options& options);

  /// Prefer Create(): this constructor skips address validation (shards_
  /// stays empty; Create() fills it after parsing each address).
  explicit Router(const Options& options);

  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] Status Start();
  void Stop();

  /// Forwards every leg of `plan` and blocks until the last one settles.
  /// Returns the legs' results, aligned with plan.legs: a reply payload
  /// verbatim, or the Status of a kError reply or transport failure. Each
  /// caller borrows an idle {private poller, LoopForwarder} pair, whose
  /// shard connections stay open for the next.
  [[nodiscard]] std::vector<StatusOr<std::string>> ForwardAndWait(
      const ForwardPlan& plan);

  /// ForwardAndWait() of one single-recommend request (JSON payload).
  [[nodiscard]] StatusOr<std::string> ForwardRecommend(
      const std::string& route_key, const std::string& payload);

  /// Point-in-time per-shard counters for /metrics.
  struct ShardStats {
    std::string address;
    bool healthy = false;
    uint64_t requests = 0;
    uint64_t errors = 0;
    service::LatencyHistogram::Snapshot latency;
  };
  std::vector<ShardStats> GetShardStats() const;

  uint64_t reroutes() const {
    return reroutes_.load(std::memory_order_relaxed);
  }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  size_t healthy_shards() const;
  size_t shard_count() const { return shards_.size(); }
  /// Shard addresses in index order.
  const std::vector<std::string>& shard_addresses() const {
    return options_.shards;
  }

  const HashRing& ring() const { return ring_; }

 private:
  friend class LoopForwarder;

  struct Shard {
    std::string address;
    std::string host;
    uint16_t port = 0;
    std::atomic<bool> healthy{true};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    service::LatencyHistogram latency;
  };

  /// \brief One leg's walk over candidate shards: the forwarding policy.
  /// Next() yields the healthy candidates in order, then — as a last
  /// resort, the prober's view may be a probe interval stale — the
  /// unhealthy ones, never a shard twice, counting every attempt after the
  /// first as a reroute. Finish() books the attempt in the shard's stats
  /// and health and maps its reply: a transport failure or an unexpected
  /// frame moves on; a kError reply ends the walk with its Status (the
  /// shard answered — a second shard would say the same, slower).
  class Walk {
   public:
    Walk(Router* router, std::vector<size_t> order, rpc::FrameType type);

    /// The request frame type every attempt sends.
    rpc::FrameType type() const { return type_; }

    /// The next shard to try, or nullopt once every candidate was tried.
    std::optional<size_t> Next();

    /// Books the attempt on `index` that started at `start`. Returns the
    /// request's result when it ends the walk, nullopt to try Next().
    std::optional<StatusOr<std::string>> Finish(
        size_t index, StatusOr<rpc::RpcFrame> reply,
        std::chrono::steady_clock::time_point start);

    /// The result once Next() ran out: transient by construction (every
    /// failure was transport-level), so 503-shaped — but a reload, pinned
    /// to one shard, gets that shard's failure as it came.
    Status Exhausted() const;

   private:
    Router* router_;
    std::vector<size_t> order_;
    rpc::FrameType type_;
    rpc::FrameType expected_reply_;
    std::vector<size_t> tried_;
    int pass_ = 0;
    size_t position_ = 0;
    Status last_ = Status::ResourceExhausted("no shard reachable");
  };

  /// A blocking caller's private poller and the LoopForwarder it drives.
  struct BlockingForwarder;

  /// The walk of leg `leg` of `plan`, by the plan's frame type.
  Walk LegWalk(const ForwardPlan& plan, size_t leg);

  rpc::RpcChannel::Options ClientOptions(size_t index,
                                         int call_timeout_ms) const;

  void ProbeLoop();

  const Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  HashRing ring_;

  /// Lock class "cluster.Router.idle_forwarders" (rank cluster=14): guards
  /// only the checkout/return vector. Forwarding and closing connections
  /// happen with the lock released (the `blocking-under-lock` lint rule
  /// enforces this).
  Mutex idle_mu_ ACQUIRED_AFTER(lockdiag::kNetOrder);
  std::vector<std::unique_ptr<BlockingForwarder>> idle_ GUARDED_BY(idle_mu_);

  std::thread prober_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> reroutes_{0};
  std::atomic<uint64_t> probes_{0};
};

/// Validates a POST /v1/recommend body and plans it: a single forwards the
/// body verbatim; a batch forwards each slot to its own shard, and one
/// malformed slot fails the whole request (400, no network hop).
StatusOr<ForwardPlan> PlanRecommend(const std::string& body);

/// Decodes a POST /v1/observe body (either wire form) and plans one kObserve
/// leg per application, in app order, each re-encoded in the binary form.
StatusOr<ForwardPlan> PlanObserve(const std::string& body);

/// The HTTP reply to `plan` from its legs' results, positionally aligned
/// with plan.legs.
net::HttpResponse JoinReplies(const ForwardPlan& plan,
                              std::vector<StatusOr<std::string>> replies);

/// \brief The HTTP face of the cluster: the standalone server's API, with
/// every recommend forwarded to a shard instead of evaluated in-process.
///
/// Endpoints (same wire shapes as HttpRecommendServer; a known path with
/// the wrong method answers 405 with Allow):
///   POST /v1/recommend   routed by consistent hash; a batch routes each
///                        slot to its own shard
///   POST /v1/observe     observations grouped by app, each group routed to
///                        the app's shard as a kObserve frame
///   GET  /v1/apps        answered by the first healthy shard
///   POST /v1/reload      sent to every shard; per-shard results
///   GET  /livez          200 whenever the router process serves
///   GET  /healthz        200 while >=1 shard is healthy, else 503
///   GET  /readyz         alias for /healthz (readiness == routable fleet)
///   GET  /metrics        router + per-shard series, Prometheus text
///
/// The four forwarded routes are planned by one function and sent by the
/// LoopForwarder, every leg in flight at once: from the event loop when the
/// body is at most net::kInlineBodyBytes, else from the handler pool through
/// Handle() and Router::ForwardAndWait().
class RouterHttpServer {
 public:
  struct Options {
    net::HttpServer::Options http;
  };

  RouterHttpServer(Router* router, const Options& options);
  ~RouterHttpServer();

  [[nodiscard]] Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  net::HttpServer::Stats http_stats() const { return server_.GetStats(); }

  /// Full routing of one request, blocking (the handler-pool path): plan,
  /// Router::ForwardAndWait(), JoinReplies(). Public so tests can exercise
  /// routes without a socket.
  net::HttpResponse Handle(const net::HttpRequest& request);

  std::string MetricsText() const;

 private:
  /// The plan of a forwarded route (recommend, observe, apps, reload) with
  /// its method, or its 400; nullopt for every other request.
  std::optional<StatusOr<ForwardPlan>> Plan(const net::HttpRequest& request,
                                            const std::string& path) const;
  /// Event-loop fast path: the GET health probes, which must answer even
  /// while every handler thread waits on a slow shard.
  std::optional<net::HttpResponse> HandleFast(const net::HttpRequest& request);
  /// Event-loop deferred path: plans forwarded routes whose body is at most
  /// net::kInlineBodyBytes and sends them through `forwarder_`; declines
  /// larger bodies and every other request.
  bool ForwardOnLoop(const net::HttpRequest& request,
                     const net::HttpServer::Reply& reply);

  Router* router_;  ///< Not owned; outlives the server.
  std::unique_ptr<LoopForwarder> forwarder_;  ///< Loop-thread state.
  net::HttpServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_ROUTER_H_
