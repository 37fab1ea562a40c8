#ifndef JUGGLER_PERFBENCH_STACK_H_
#define JUGGLER_PERFBENCH_STACK_H_

// The serving stacks under test, assembled in-process from the public
// classes of src/, plus the training step that produces their models. A
// traced stack is the same assembly with the benchmark's own front-end
// servers wrapped around the public Handle()/HandleFast() entry points, so
// every handler invocation leaves a span.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "core/recommender.h"
#include "net/http_recommend_server.h"
#include "net/http_server.h"
#include "online/online_loop.h"
#include "rpc/rpc_server.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::perfbench {

namespace fs = std::filesystem;

/// Five freshly trained models, saved as `<app>.model` under `dir`.
struct ModelSet {
  fs::path dir;
  std::map<std::string, core::TrainedJuggler> models;
  std::map<std::string, std::string> artifacts;  ///< Serialized text.
  double train_ms = 0.0;  ///< core::TrainJuggler over all five apps.
};

/// Trains the five paper workloads into `dir` (created; must be fresh).
ModelSet TrainModels(const fs::path& dir);

enum class SpanName : uint8_t {
  kHandleFast,      ///< HttpRecommendServer::HandleFast answered inline.
  kHandleFastMiss,  ///< HandleFast fell through to the handler pool.
  kHandle,          ///< HttpRecommendServer::Handle (pool path).
  kRouterHandle,    ///< RouterHttpServer::Handle.
  kShardHandle,     ///< ShardServer::Handle.
};
const char* SpanNameString(SpanName name);

struct ServerSpan {
  uint64_t request_id = 0;  ///< X-Request-Id; 0 when not linked (shards).
  SpanName name = SpanName::kHandle;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Fixed-capacity, lock-free span buffer: one fetch_add per span, spans
/// past capacity are dropped.
class SpanSink {
 public:
  explicit SpanSink(size_t capacity) : spans_(capacity) {}
  void Record(uint64_t request_id, SpanName name, int64_t start_ns,
              int64_t end_ns);
  std::vector<ServerSpan> Take();  ///< Not concurrent with Record().

 private:
  std::vector<ServerSpan> spans_;
  std::atomic<size_t> next_{0};
};

/// Counters read from the stack after a phase.
struct StackCounters {
  net::HttpServer::Stats http;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t rejected = 0;
  uint64_t deadline_shed = 0;
  uint64_t evictions = 0;
  uint64_t reroutes = 0;
  std::vector<uint64_t> shard_requests;
  uint64_t refits_attempted = 0;
  uint64_t refits_accepted = 0;
};

class Stack {
 public:
  virtual ~Stack() = default;
  virtual uint16_t port() const = 0;
  virtual StackCounters Counters() const = 0;
  virtual void Stop() = 0;
};

/// HttpRecommendServer over an eager registry (the standalone tier).
class StandaloneStack : public Stack {
 public:
  /// `spans` non-null builds the traced variant.
  StandaloneStack(const fs::path& model_dir, SpanSink* spans);
  ~StandaloneStack() override { Stop(); }

  uint16_t port() const override;
  StackCounters Counters() const override;
  void Stop() override;

  service::ModelRegistry& registry() { return *registry_; }
  service::RecommendationService& service() { return *service_; }
  net::HttpRecommendServer& server() { return *server_; }

 private:
  std::shared_ptr<service::ModelRegistry> registry_;
  std::shared_ptr<service::RecommendationService> service_;
  std::unique_ptr<net::HttpRecommendServer> server_;
  std::unique_ptr<net::HttpServer> traced_front_;  ///< Traced variant only.
};

/// RouterHttpServer + Router over two in-process JRPC shards with lazy
/// registries and an online refit loop each.
class ClusterStack : public Stack {
 public:
  static constexpr int kShards = 2;

  ClusterStack(const fs::path& model_dir, SpanSink* spans);
  ~ClusterStack() override { Stop(); }

  uint16_t port() const override;
  StackCounters Counters() const override;
  void Stop() override;

  struct Shard {
    std::shared_ptr<service::ModelRegistry> registry;
    std::shared_ptr<service::RecommendationService> service;
    std::shared_ptr<online::OnlineJuggler> online;
    std::unique_ptr<cluster::ShardServer> server;
    std::unique_ptr<rpc::RpcServer> traced_front;  ///< Traced variant only.
  };
  std::vector<std::unique_ptr<Shard>>& shards() { return shards_; }
  cluster::Router& router() { return *router_; }
  cluster::RouterHttpServer& http() { return *http_; }

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<cluster::Router> router_;
  std::unique_ptr<cluster::RouterHttpServer> http_;
  std::unique_ptr<net::HttpServer> traced_front_;
  /// Process-wide online counters at construction (they are global).
  uint64_t refits_attempted_base_ = 0;
  uint64_t refits_accepted_base_ = 0;
  bool stopped_ = false;
};

std::unique_ptr<Stack> StartStack(bool cluster, const fs::path& model_dir,
                                  SpanSink* spans);

/// The X-Request-Id of `request`, 0 when absent or malformed.
uint64_t RequestIdOf(const net::HttpRequest& request);

}  // namespace juggler::perfbench

#endif  // JUGGLER_PERFBENCH_STACK_H_
