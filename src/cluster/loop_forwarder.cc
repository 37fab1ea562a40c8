#include "cluster/loop_forwarder.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/recommend_codec.h"

namespace juggler::cluster {

namespace {

/// Most RpcChannels one forwarder opens to one shard (the shard answers a
/// connection's frames in order, so more channels means more in parallel).
constexpr size_t kMaxChannelsPerShard = 8;

}  // namespace

void LoopForwarder::Forward(ForwardPlan plan,
                            const net::HttpServer::Reply& reply) {
  auto fanout = std::make_shared<Fanout>();
  fanout->owned = std::move(plan);
  fanout->plan = &fanout->owned;
  fanout->reply = reply;
  Start(fanout);
}

void LoopForwarder::Forward(const ForwardPlan& plan,
                            std::vector<StatusOr<std::string>>* results) {
  auto fanout = std::make_shared<Fanout>();
  fanout->plan = &plan;
  fanout->out = results;
  Start(fanout);
}

void LoopForwarder::Start(const std::shared_ptr<Fanout>& fanout) {
  const size_t legs = fanout->plan->legs.size();
  fanout->results.assign(legs, Status::Internal("leg not settled"));
  fanout->pending = legs;
  if (legs == 0) Deliver(*fanout);
  for (size_t leg = 0; leg < legs; ++leg) {
    Attempt(Call{router_->LegWalk(*fanout->plan, leg), fanout, leg});
  }
}

void LoopForwarder::Attempt(Call call) {
  const std::optional<size_t> next = call.walk.Next();
  if (!next.has_value()) {
    Complete(call, call.walk.Exhausted());
    return;
  }
  call.shard = *next;
  call.start = Clock::now();
  const uint64_t id = next_id_++;
  PickChannel(*next)->Send(call.walk.type(), id,
                           call.fanout->plan->legs[call.leg].payload);
  calls_.emplace(id, std::move(call));
}

void LoopForwarder::Complete(const Call& call, StatusOr<std::string> result) {
  Fanout& fanout = *call.fanout;
  fanout.results[call.leg] = std::move(result);
  if (--fanout.pending == 0) Deliver(fanout);
}

void LoopForwarder::Deliver(Fanout& fanout) {
  if (fanout.out != nullptr) {
    *fanout.out = std::move(fanout.results);
    return;
  }
  (*fanout.reply)(JoinReplies(*fanout.plan, std::move(fanout.results)));
}

rpc::RpcChannel* LoopForwarder::PickChannel(size_t shard) {
  std::vector<std::unique_ptr<rpc::RpcChannel>>& channels = channels_[shard];
  rpc::RpcChannel* best = nullptr;
  for (const auto& channel : channels) {
    if (best == nullptr || channel->in_flight() < best->in_flight()) {
      best = channel.get();
    }
  }
  if (best == nullptr ||
      (best->in_flight() > 0 && channels.size() < kMaxChannelsPerShard)) {
    channels.push_back(std::make_unique<rpc::RpcChannel>(
        router_->ClientOptions(shard, router_->options_.rpc_timeout_ms),
        poller_));
    best = channels.back().get();
  }
  return best;
}

LoopForwarder::Clock::time_point LoopForwarder::next_deadline() const {
  Clock::time_point next = Clock::time_point::max();
  for (const auto& channels : channels_) {
    for (const auto& channel : channels) {
      next = std::min(next, channel->next_deadline());
    }
  }
  return next;
}

void LoopForwarder::OnStart(net::Poller* poller) {
  poller_ = poller;
  channels_.resize(router_->shards_.size());
}

void LoopForwarder::OnEvent(const net::Poller::Event& event) {
  for (auto& channels : channels_) {
    for (auto& channel : channels) {
      if (channel->fd() != event.fd) continue;
      channel->OnEvent(event, &outcomes_);
      Settle();
      return;
    }
  }
}

void LoopForwarder::AfterEvents() {
  const Clock::time_point now = Clock::now();
  for (auto& channels : channels_) {
    for (auto& channel : channels) channel->CheckDeadlines(now, &outcomes_);
  }
  Settle();
  // Flush what the batch queued: one write per channel. A failed write
  // reroutes its calls onto other channels, which the next pass flushes.
  for (bool flushed = true; flushed;) {
    flushed = false;
    for (auto& channels : channels_) {
      for (auto& channel : channels) {
        if (!channel->dirty()) continue;
        channel->Flush(&outcomes_);
        flushed = true;
      }
    }
    Settle();
  }
}

void LoopForwarder::Settle() {
  if (outcomes_.empty()) return;
  std::vector<rpc::RpcChannel::Outcome> ready;
  ready.swap(outcomes_);
  for (rpc::RpcChannel::Outcome& outcome : ready) {
    const auto it = calls_.find(outcome.request_id);
    if (it == calls_.end()) continue;
    Call call = std::move(it->second);
    calls_.erase(it);
    std::optional<StatusOr<std::string>> result =
        call.walk.Finish(call.shard, std::move(outcome.reply), call.start);
    if (result.has_value()) {
      Complete(call, *std::move(result));
    } else {
      Attempt(std::move(call));  // Reroute.
    }
  }
  ready.clear();
  if (outcomes_.empty()) outcomes_.swap(ready);  // Keep the capacity.
}

void LoopForwarder::OnStop() {
  // Closing the channels drops their calls; the client connections those
  // calls answer close with the loop.
  channels_.clear();
  calls_.clear();
}

}  // namespace juggler::cluster
