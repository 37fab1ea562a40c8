#include "rpc/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace juggler::rpc {

StatusOr<RpcFrame> RpcClient::Call(FrameType type, std::string_view payload) {
  const uint64_t id = next_request_id_++;
  std::vector<RpcChannel::Outcome> outcomes;
  std::vector<net::Poller::Event> events;
  channel_.Send(type, id, payload);
  channel_.Flush(&outcomes);
  for (;;) {
    // Other ids belong to a call abandoned when Wait() failed.
    for (RpcChannel::Outcome& outcome : outcomes) {
      if (outcome.request_id == id) return std::move(outcome.reply);
    }
    outcomes.clear();
    // This call is in flight, so its deadline bounds the wait.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        channel_.next_deadline() - RpcChannel::Clock::now());
    Status waited = poller_->Wait(
        static_cast<int>(std::max<int64_t>(wait.count(), 0)), &events);
    if (!waited.ok()) return waited;
    for (const auto& event : events) channel_.OnEvent(event, &outcomes);
    channel_.CheckDeadlines(RpcChannel::Clock::now(), &outcomes);
  }
}

Status RpcClient::Ping() {
  auto reply = Call(FrameType::kPing, "");
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kPong) return Status::OK();
  return Status::Internal("ping answered with frame type " +
                          std::to_string(static_cast<int>(reply->type)));
}

}  // namespace juggler::rpc
