#ifndef JUGGLER_CLUSTER_ROUTER_H_
#define JUGGLER_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
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

/// \brief Consistent-hash router over a fixed fleet of JRPC shards.
///
/// Each recommend question routes by hash of (app, params, machine) — the
/// same composite the prediction cache keys on, minus the model version —
/// so a recurring question always lands on the shard whose cache is warm
/// for it and whose lazy registry has its model resident.
///
/// Failure model:
///  - a background prober pings every shard on a fixed cadence and flips a
///    per-shard healthy bit; routing prefers healthy shards;
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
  /// Warm hints sent to surviving shards after a failover reroute.
  uint64_t warm_hints() const {
    return warm_hints_.load(std::memory_order_relaxed);
  }
  /// Hot keys forwarded across all warm hints.
  uint64_t warm_keys() const {
    return warm_keys_.load(std::memory_order_relaxed);
  }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  size_t healthy_shards() const;
  size_t shard_count() const { return shards_.size(); }

  const HashRing& ring() const { return ring_; }

 private:
  struct Shard {
    Shard();
    std::string address;
    std::string host;
    uint16_t port = 0;
    std::atomic<bool> healthy{true};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    service::LatencyHistogram latency;
    /// steady_clock ms of the last warm hint sourced from this shard's keys
    /// (cooldown so one failover burst sends one hint, not one per request).
    std::atomic<int64_t> last_warm_ms{-1};
    /// Lock class "cluster.Router.shard_pool" (rank cluster=14): guards only
    /// the checkout/return vector. RpcClient Dial/Call/close all happen with
    /// the lock released (the `blocking-under-lock` lint rule enforces this).
    Mutex pool_mu ACQUIRED_AFTER(lockdiag::kNetOrder);
    std::vector<std::unique_ptr<rpc::RpcClient>> pool GUARDED_BY(pool_mu);
  };

  /// One recently served recommend question: enough to re-issue it as a
  /// cache pre-warm on another shard.
  struct HotEntry {
    std::string payload;  ///< The single-recommend request JSON, verbatim.
    uint64_t hits = 0;
    size_t owner = 0;  ///< Shard index that last served it.
  };

  /// One call against shard `index`: checkout (or dial) a pooled client,
  /// send, and either return the client to the pool (success) or drop it
  /// and mark the shard unhealthy (transport failure).
  StatusOr<rpc::RpcFrame> CallShard(size_t index, rpc::FrameType type,
                                    const std::string& payload);

  /// The shared preference-order forwarding loop behind ForwardRecommend
  /// and ForwardObserve.
  StatusOr<std::string> ForwardByKey(const std::string& route_key,
                                     rpc::FrameType type,
                                     rpc::FrameType expected_reply,
                                     const std::string& payload);

  /// Remembers a successfully served recommend question in the bounded
  /// hot-key table (route_key -> payload/hits/owner shard).
  void RecordHotKey(const std::string& route_key, const std::string& payload,
                    size_t owner) EXCLUDES(hot_mu_);

  /// After a failover reroute: best-effort kWarm to `target` carrying the
  /// top-k hot questions last owned by the `failed` shards, so the survivor
  /// pre-computes them instead of serving cold. Rate-limited per failed
  /// shard; never blocks the rerouted request's response path on an error.
  void MaybeSendWarmHint(const std::vector<size_t>& failed, size_t target)
      EXCLUDES(hot_mu_);

  void ProbeLoop();

  const Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  HashRing ring_;

  std::thread prober_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> reroutes_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> warm_hints_{0};
  std::atomic<uint64_t> warm_keys_{0};

  /// Lock class "cluster.Router.hot_keys" (rank cluster=14): guards only the
  /// bounded hot-key table; never held across an RPC (payloads are copied
  /// out, then the kWarm call runs unlocked).
  mutable Mutex hot_mu_ ACQUIRED_AFTER(lockdiag::kNetOrder);
  std::map<std::string, HotEntry> hot_keys_ GUARDED_BY(hot_mu_);
};

/// \brief The HTTP face of the cluster: the standalone server's API, with
/// every recommend forwarded to a shard instead of evaluated in-process.
///
/// Endpoints (same wire shapes as HttpRecommendServer):
///   POST /v1/recommend   routed by consistent hash; batches route per slot
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

  [[nodiscard]] Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  net::HttpServer::Stats http_stats() const { return server_.GetStats(); }

  /// Full routing of one request. Public so tests can exercise routes
  /// without a socket.
  net::HttpResponse Handle(const net::HttpRequest& request);

  std::string MetricsText() const;

 private:
  net::HttpResponse HandleRecommend(const net::HttpRequest& request);
  net::HttpResponse HandleObserve(const net::HttpRequest& request);
  net::HttpResponse HandleApps();
  net::HttpResponse HandleReload();

  Router* router_;  ///< Not owned; outlives the server.
  net::HttpServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_ROUTER_H_
