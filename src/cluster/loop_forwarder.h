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

/// \brief The router's loop path: forwards planned requests (recommend
/// singles and batches, observations) from the HTTP event loop over
/// pipelined, non-blocking JRPC connections registered in the same poller —
/// no handler-pool hop and no thread parked per call.
///
/// A plan fans out: each leg gets its own Router::Walk (failover per leg)
/// and all legs are in flight at once, so a batch costs about one shard
/// round trip, and slots on a hung shard cost one `rpc_timeout_ms` together.
/// When the last leg settles, JoinReplies() builds the client's reply — the
/// join the blocking path uses too. A single is a fan-out of one.
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

  /// Sends every leg of `plan`; `reply` gets the joined answer once the
  /// last leg settles, on the loop thread (right away for a plan with no
  /// legs).
  void Forward(ForwardPlan plan, const net::HttpServer::Reply& reply);

  void OnStart(net::Poller* poller) override;
  void OnEvent(const net::Poller::Event& event) override;
  void AfterEvents() override;
  void OnStop() override;

 private:
  using Clock = std::chrono::steady_clock;

  /// One client request in flight: its plan (the legs' payloads, kept for
  /// reroutes), the legs' results so far, and how many are still open.
  struct Fanout {
    ForwardPlan plan;
    std::vector<StatusOr<std::string>> results;
    size_t pending = 0;
    net::HttpServer::Reply reply;
  };

  /// One leg's walk; while an attempt is in flight, keyed by its request id.
  struct Call {
    Router::Walk walk;
    std::shared_ptr<Fanout> fanout;
    size_t leg = 0;
    size_t shard = 0;  ///< Shard of the attempt in flight.
    Clock::time_point start{};
  };

  /// Sends `call` to the walk's next shard, or settles its leg when the walk
  /// is exhausted.
  void Attempt(Call call);
  /// Records a leg's result; the last one answers the client.
  static void Complete(const Call& call, StatusOr<std::string> result);
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
