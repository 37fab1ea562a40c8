#ifndef JUGGLER_CLUSTER_LOOP_FORWARDER_H_
#define JUGGLER_CLUSTER_LOOP_FORWARDER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
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

/// \brief The router's one transport: forwards planned requests (recommend
/// singles and batches, observations, apps, reload) over pipelined,
/// non-blocking JRPC connections registered in its owner's poller — no
/// thread parked per call.
///
/// A plan fans out: each leg gets its own Router::Walk (failover per leg)
/// and all legs are in flight at once, so a batch costs about one shard
/// round trip, and slots on a hung shard cost one `rpc_timeout_ms` together.
/// A single is a fan-out of one.
///
/// Two owners drive it, on one thread each. The RouterHttpServer's event
/// loop runs one as its EventLoopServer::LoopAgent; when the last leg of a
/// plan settles, JoinReplies() builds the client's reply. A blocking caller
/// (Router::ForwardAndWait) runs one on a private poller, turning it until
/// idle(), and takes the legs' results.
///
/// Each shard gets up to eight RpcChannels per forwarder: a call takes an
/// idle one, or opens another while all are busy, else the least busy.
/// Calls queue during a batch of events and leave in one write per channel
/// after it. Policy — preference order, health, reroute, kError mapping,
/// per-shard stats — is Router::Walk; a call past `rpc_timeout_ms` is a
/// transport failure like any other.
class LoopForwarder final : public net::EventLoopServer::LoopAgent {
 public:
  using Clock = std::chrono::steady_clock;

  explicit LoopForwarder(Router* router) : router_(router) {}

  /// Sends every leg of `plan`; `reply` gets the joined answer once the
  /// last leg settles, on the owner's thread (right away for a plan with no
  /// legs).
  void Forward(ForwardPlan plan, const net::HttpServer::Reply& reply);

  /// Sends every leg of `plan`, which must outlive the legs; once the last
  /// settles, `*results` holds their results, aligned with plan.legs, and
  /// idle() turns true.
  void Forward(const ForwardPlan& plan,
               std::vector<StatusOr<std::string>>* results);

  /// True while no call is in flight.
  bool idle() const { return calls_.empty(); }
  /// The earliest deadline of a dial or call in flight (time_point::max()
  /// when none runs): AfterEvents() past it settles a call.
  Clock::time_point next_deadline() const;

  void OnStart(net::Poller* poller) override;
  void OnEvent(const net::Poller::Event& event) override;
  void AfterEvents() override;
  void OnStop() override;

 private:
  /// One client request in flight: its plan (the legs' payloads, kept for
  /// reroutes), the legs' results so far, how many are still open, and
  /// where the results go — the loop path's reply, or the blocking caller's
  /// vector.
  struct Fanout {
    ForwardPlan owned;  ///< The loop path's plan.
    const ForwardPlan* plan = nullptr;  ///< `owned`, or the blocking caller's.
    std::vector<StatusOr<std::string>> results;
    size_t pending = 0;
    std::optional<net::HttpServer::Reply> reply;
    std::vector<StatusOr<std::string>>* out = nullptr;
  };

  /// One leg's walk; while an attempt is in flight, keyed by its request id.
  struct Call {
    Router::Walk walk;
    std::shared_ptr<Fanout> fanout;
    size_t leg = 0;
    size_t shard = 0;  ///< Shard of the attempt in flight.
    Clock::time_point start{};
  };

  /// Starts every leg of `fanout`'s plan.
  void Start(const std::shared_ptr<Fanout>& fanout);
  /// Sends `call` to the walk's next shard, or settles its leg when the walk
  /// is exhausted.
  void Attempt(Call call);
  /// Records a leg's result; the last one delivers the plan's results.
  static void Complete(const Call& call, StatusOr<std::string> result);
  /// Hands the settled results to the reply (joined) or the caller.
  static void Deliver(Fanout& fanout);
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
