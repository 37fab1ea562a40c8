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
/// Two transports share one forwarding policy (`Walk`): the blocking one
/// below (pooled RpcClients; batches, observe, apps, reload, and the public
/// ForwardRecommend) and the router's loop path (`LoopForwarder`: pipelined
/// RpcChannels on the HTTP event loop; single recommends).
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
    /// Idle RpcClients kept per shard for reuse.
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

  /// Routes one single-recommend request (JSON payload) by `route_key`.
  /// Returns the shard's reply payload verbatim, or the reconstructed
  /// Status of a kError reply / all-shards-down transport failure.
  [[nodiscard]] StatusOr<std::string> ForwardRecommend(
      const std::string& route_key, const std::string& payload);

  /// Routes one observation batch (online binary wire format) by
  /// `route_key` — the application name, so an app's observations land on
  /// the shard whose registry serves its model and whose online loop can
  /// refit it. Same failover discipline as ForwardRecommend.
  [[nodiscard]] StatusOr<std::string> ForwardObserve(
      const std::string& route_key, const std::string& payload);

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
    /// the checkout/return vector. RpcClient Dial/Call/close all happen with
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

/// \brief The HTTP face of the cluster: the standalone server's API, with
/// every recommend forwarded to a shard instead of evaluated in-process.
///
/// Endpoints (same wire shapes as HttpRecommendServer; a known path with
/// the wrong method answers 405 with Allow):
///   POST /v1/recommend   routed by consistent hash; singles are forwarded
///                        from the event loop (LoopForwarder), batches
///                        route per slot from the handler pool
///   POST /v1/observe     observations grouped by app, each group routed to
///                        the app's shard as a kObserve frame
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
  /// Event-loop deferred path: takes valid recommend singles and forwards
  /// them through `forwarder_`; declines batches.
  bool ForwardOnLoop(const net::HttpRequest& request,
                     const net::HttpServer::Reply& reply);
  net::HttpResponse HandleRecommend(const net::HttpRequest& request);
  net::HttpResponse HandleObserve(const net::HttpRequest& request);
  net::HttpResponse HandleApps();
  net::HttpResponse HandleReload();

  Router* router_;  ///< Not owned; outlives the server.
  std::unique_ptr<LoopForwarder> forwarder_;  ///< Loop-thread state.
  net::HttpServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_ROUTER_H_
