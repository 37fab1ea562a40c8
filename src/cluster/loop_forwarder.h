#ifndef JUGGLER_CLUSTER_LOOP_FORWARDER_H_
#define JUGGLER_CLUSTER_LOOP_FORWARDER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/router.h"
#include "common/status.h"
#include "net/event_loop_server.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/poller.h"
#include "rpc/rpc_channel.h"

namespace juggler::cluster {

/// The HTTP answer to a forwarded recommend: the shard's reply document
/// verbatim (200), or the walk's error. Both router paths use it.
net::HttpResponse ForwardedRecommendResponse(StatusOr<std::string> reply);

/// \brief The router's loop path: forwards recommend singles from the HTTP
/// event loop over pipelined, non-blocking JRPC connections registered in
/// the same poller — no handler-pool hop and no thread parked per call.
///
/// It is the RouterHttpServer's EventLoopServer::LoopAgent and runs on the
/// loop thread only. Each shard gets up to `max_clients_per_shard`
/// RpcChannels: a call takes an idle one, or opens another while all are
/// busy and the cap allows, else the least busy. Calls queue during a batch
/// of events and leave in one write per channel after it. Policy —
/// preference order, health, reroute, kError mapping, per-shard stats — is
/// Router::Walk, shared with the blocking path; a call past `rpc_timeout_ms`
/// is a transport failure like any other.
class LoopForwarder final : public net::EventLoopServer::LoopAgent {
 public:
  explicit LoopForwarder(Router* router) : router_(router) {}

  /// Forwards one validated single recommend, routed by `route_key`;
  /// `reply` gets the answer later, on the loop thread.
  void Forward(const std::string& route_key, std::string payload,
               const net::HttpServer::Reply& reply);

  void OnStart(net::Poller* poller) override;
  void OnEvent(const net::Poller::Event& event) override;
  void AfterEvents() override;
  void OnStop() override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Call {
    Router::Walk walk;
    std::string payload;  ///< The request body, kept for a reroute.
    net::HttpServer::Reply reply;
    size_t shard = 0;  ///< Shard of the attempt in flight.
    Clock::time_point start{};
  };

  /// Sends `call` to the walk's next shard, or answers it when the walk is
  /// exhausted.
  void Attempt(Call call);
  rpc::RpcChannel* PickChannel(size_t shard);
  /// Finishes the attempts in `outcomes_`: answer, or reroute.
  void Settle();

  Router* const router_;
  net::Poller* poller_ = nullptr;
  std::vector<std::vector<std::unique_ptr<rpc::RpcChannel>>> channels_;
  std::unordered_map<uint64_t, Call> calls_;  ///< By JRPC request id.
  uint64_t next_id_ = 1;
  std::vector<rpc::RpcChannel::Outcome> outcomes_;
};

}  // namespace juggler::cluster

#endif  // JUGGLER_CLUSTER_LOOP_FORWARDER_H_
