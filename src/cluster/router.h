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
#include "rpc/rpc_client.h"
#include "service/metrics.h"

namespace juggler::cluster {

class LoopForwarder;

/// \brief Consistent-hash router over a fixed fleet of JRPC shards.
///
/// Each recommend question routes by hash of (app, params, machine) — the
/// same composite the prediction cache keys on, minus the model version —
/// so a recurring question always lands on the shard whose cache is warm
/// for it and whose lazy registry has its model resident.
///
/// Two transports share one forwarding policy (`Walk`) and one connection
/// type (`rpc::RpcChannel`): the blocking one below (pooled RpcClients,
/// each driving one channel on its own poller; apps, reload, bodies over
/// net::kInlineBodyBytes, RouterHttpServer::Handle(), and the public
/// Forward calls) and the router's loop path (`LoopForwarder`: pipelined
/// RpcChannels on the HTTP event loop; recommends and observations). Both
/// run the same ForwardPlan.
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
    size_t virtual_nodes = 64;
    int rpc_timeout_ms = 5'000;
    int connect_timeout_ms = 1'000;
    /// Distinct shards tried per request (owner + failovers).
    size_t max_attempts = 3;
    int probe_interval_ms = 250;
    /// Per shard: the idle RpcClients the blocking path keeps for reuse,
    /// and the most RpcChannels the loop path opens (at least one).
    size_t max_clients_per_shard = 8;
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

  /// Routes one `type` frame (kRecommend or kObserve) by `route_key` over
  /// the blocking transport. Returns the shard's reply payload verbatim, or
  /// the reconstructed Status of a kError reply / all-shards-down transport
  /// failure.
  [[nodiscard]] StatusOr<std::string> Forward(rpc::FrameType type,
                                              const std::string& route_key,
                                              const std::string& payload);

  /// Forward() of one single-recommend request (JSON payload).
  [[nodiscard]] StatusOr<std::string> ForwardRecommend(
      const std::string& route_key, const std::string& payload) {
    return Forward(rpc::FrameType::kRecommend, route_key, payload);
  }

  /// Sends `type` to the first healthy shard (any shard can answer
  /// fleet-level metadata like kApps). Same failover as ForwardRecommend.
  [[nodiscard]] StatusOr<std::string> CallAny(rpc::FrameType type,
                                              const std::string& payload);

  /// One broadcast result per shard, in shard order.
  struct BroadcastResult {
    std::string address;
    StatusOr<std::string> reply;
  };
  std::vector<BroadcastResult> Broadcast(rpc::FrameType type,
                                         const std::string& payload);

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

  const HashRing& ring() const { return ring_; }

 private:
  friend class LoopForwarder;

  struct Shard {
    Shard();
    std::string address;
    std::string host;
    uint16_t port = 0;
    std::atomic<bool> healthy{true};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    service::LatencyHistogram latency;
    /// Lock class "cluster.Router.shard_pool" (rank cluster=14): guards only
    /// the checkout/return vector. RpcClient calls and closes all happen with
    /// the lock released (the `blocking-under-lock` lint rule enforces this).
    Mutex pool_mu ACQUIRED_AFTER(lockdiag::kNetOrder);
    std::vector<std::unique_ptr<rpc::RpcClient>> pool GUARDED_BY(pool_mu);
  };

  /// \brief One request's walk over candidate shards: the forwarding policy
  /// both transports share. Next() yields the healthy candidates in order,
  /// then — as a last resort, the prober's view may be a probe interval
  /// stale — the unhealthy ones, never a shard twice, counting every attempt
  /// after the first as a reroute. Finish() books the attempt in the shard's
  /// stats and health and maps its reply: a transport failure or an
  /// unexpected frame moves on; a kError reply ends the walk with its Status
  /// (the shard answered — a second shard would say the same, slower).
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
    /// failure was transport-level), so 503-shaped.
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

  /// The walk for a keyed request: the key's ring preference order.
  Walk KeyWalk(const std::string& route_key, rpc::FrameType type);

  /// Books one attempt's outcome in shard `index`'s counters and health.
  void RecordAttempt(size_t index, bool transport_ok,
                     std::chrono::steady_clock::time_point start);

  rpc::RpcClient::Options ClientOptions(size_t index,
                                        int call_timeout_ms) const;

  /// The blocking transport: checkout (or dial) a pooled client, call, and
  /// return the client to the pool — or drop it on a transport failure.
  StatusOr<rpc::RpcFrame> CallShard(size_t index, rpc::FrameType type,
                                    const std::string& payload);

  /// Runs `walk` to its end over the blocking transport.
  StatusOr<std::string> RunWalk(Walk walk, const std::string& payload);

  void ProbeLoop();

  const Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  HashRing ring_;

  std::thread prober_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> reroutes_{0};
  std::atomic<uint64_t> probes_{0};
};

/// \brief What one client request asks of the shards, planned once from its
/// body: the shard calls ("legs") that answer it and how their replies join
/// into the HTTP reply. Both transports run the same plan — the blocking
/// path leg by leg, the loop path all legs at once — and join with
/// JoinReplies(), so they cannot drift in bytes.
struct ForwardPlan {
  enum class Join {
    kSingle,   ///< One recommend: the shard's reply document verbatim.
    kResults,  ///< A batch: {"results":[reply or error, ...]} in slot order.
    kShards,   ///< Observations: {"shards":[{"app":..,"reply"|"error":..}]}.
  };
  struct Leg {
    /// Ring key: the slot's prediction-cache key, or the app of an
    /// observation group (so it reaches the shard that refits that app).
    std::string route_key;
    std::string payload;  ///< The frame payload, verbatim.
  };
  rpc::FrameType type = rpc::FrameType::kRecommend;
  Join join = Join::kSingle;
  std::vector<Leg> legs;
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
///                        (both forwarded from the event loop by the
///                        LoopForwarder, every leg in flight at once, when
///                        the body is at most net::kInlineBodyBytes; from
///                        the handler pool, leg by leg, otherwise)
///   GET  /v1/apps        answered by the first healthy shard
///   POST /v1/reload      broadcast to every shard; per-shard results
///   GET  /livez          200 whenever the router process serves
///   GET  /healthz        200 while >=1 shard is healthy, else 503
///   GET  /readyz         alias for /healthz (readiness == routable fleet)
///   GET  /metrics        router + per-shard series, Prometheus text
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

  /// Full routing of one request over the blocking transport (the
  /// handler-pool path). Public so tests can exercise routes without a
  /// socket.
  net::HttpResponse Handle(const net::HttpRequest& request);

  std::string MetricsText() const;

 private:
  /// Event-loop fast path: the GET health probes, which must answer even
  /// while every handler thread waits on a slow shard.
  std::optional<net::HttpResponse> HandleFast(const net::HttpRequest& request);
  /// Event-loop deferred path: plans recommends and observations of at
  /// most net::kInlineBodyBytes and forwards them through `forwarder_`;
  /// declines larger bodies and every other route.
  bool ForwardOnLoop(const net::HttpRequest& request,
                     const net::HttpServer::Reply& reply);
  /// The blocking path of a plan: its legs one after another, then the
  /// same join.
  net::HttpResponse RunPlan(StatusOr<ForwardPlan> plan);
  net::HttpResponse HandleApps();
  net::HttpResponse HandleReload();

  Router* router_;  ///< Not owned; outlives the server.
  std::unique_ptr<LoopForwarder> forwarder_;  ///< Loop-thread state.
  net::HttpServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_ROUTER_H_
