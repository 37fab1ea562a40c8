#ifndef JUGGLER_CLUSTER_SHARD_SERVER_H_
#define JUGGLER_CLUSTER_SHARD_SERVER_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "online/online_loop.h"
#include "rpc/rpc_server.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::cluster {

/// \brief One backend shard of the horizontal serving tier: a JRPC server
/// answering the recommend API over binary frames.
///
/// A shard owns a RecommendationService + ModelRegistry exactly like the
/// standalone HTTP server does; what makes it a *slice* of the fleet is the
/// router's consistent hashing plus lazy model loading — each shard is only
/// ever asked about the apps that hash to it, so (with
/// ModelRegistry::Options::lazy_load) it only pays memory for those models.
///
/// Frame protocol (payloads are the HTTP API's JSON documents verbatim):
///   kRecommend  -> kRecommendReply | kError
///   kApps       -> kAppsReply  {"version":v,"apps":[...]}
///   kReload     -> kReloadReply {registry reload summary}
///   kObserve    -> kObserveReply {"accepted":n,"buffered":n} | kError
///                  (observation batch in the online binary wire format;
///                  FAILED_PRECONDITION when the shard runs without --online)
///   anything else -> kError INVALID_ARGUMENT
///
/// Where frames run: kPing, and every frame with a payload of at most
/// net::kInlineBodyBytes that is a kRecommend whose model is resident (a
/// cache hit or a microsecond evaluation, through
/// RecommendationService::RecommendIfResident) or fails validation, or a
/// kObserve, is answered inline on the shard's event loop (HandleFast). A
/// recommend that needs a lazy model load, a larger payload, kApps and
/// kReload go to the handler pool (Handle).
class ShardServer {
 public:
  struct Options {
    rpc::RpcServer::Options rpc;
    /// The shard's online feedback loop; null rejects kObserve frames.
    std::shared_ptr<online::OnlineJuggler> online;
  };

  ShardServer(std::shared_ptr<service::ModelRegistry> registry,
              std::shared_ptr<service::RecommendationService> service,
              const Options& options);

  [[nodiscard]] Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  const std::string& backend() const { return server_.backend(); }
  rpc::RpcServer::Stats rpc_stats() const { return server_.GetStats(); }

  /// Full dispatch of one request frame (handler-pool path). Public so tests
  /// can exercise the protocol without a socket.
  rpc::RpcFrame Handle(const rpc::RpcFrame& request);

  /// Event-loop fast path: the answer to a kRecommend that needs no model
  /// load or to a kObserve, or nullopt (a payload over
  /// net::kInlineBodyBytes, a lazy load, another type) to fall through to
  /// Handle() on the pool.
  std::optional<rpc::RpcFrame> HandleFast(const rpc::RpcFrame& request);

 private:
  /// The recommend answer path of both HandleFast (`resident_only`: nullopt
  /// when the model is not in memory) and Handle.
  std::optional<rpc::RpcFrame> HandleRecommend(const rpc::RpcFrame& request,
                                               bool resident_only);
  rpc::RpcFrame HandleObserve(const rpc::RpcFrame& request);

  std::shared_ptr<service::ModelRegistry> registry_;
  std::shared_ptr<service::RecommendationService> service_;
  std::shared_ptr<online::OnlineJuggler> online_;
  rpc::RpcServer server_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_SHARD_SERVER_H_
