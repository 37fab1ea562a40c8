#include "cluster/shard_server.h"

#include "net/event_loop_server.h"
#include "net/json.h"
#include "net/recommend_codec.h"

namespace juggler::cluster {

namespace {

rpc::RpcFrame ErrorFrame(const Status& status) {
  rpc::RpcFrame frame;
  frame.type = rpc::FrameType::kError;
  frame.payload = net::ErrorJson(status).Dump();
  return frame;
}

rpc::RpcFrame Reply(rpc::FrameType type, std::string payload) {
  rpc::RpcFrame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace

ShardServer::ShardServer(
    std::shared_ptr<service::ModelRegistry> registry,
    std::shared_ptr<service::RecommendationService> service,
    const Options& options)
    : registry_(std::move(registry)),
      service_(std::move(service)),
      online_(options.online),
      server_(
          options.rpc,
          [this](const rpc::RpcFrame& request) { return Handle(request); },
          [this](const rpc::RpcFrame& request) { return HandleFast(request); }) {
}

rpc::RpcFrame ShardServer::Handle(const rpc::RpcFrame& request) {
  switch (request.type) {
    case rpc::FrameType::kRecommend:
      return *HandleRecommend(request, /*resident_only=*/false);
    case rpc::FrameType::kApps:
      return Reply(rpc::FrameType::kAppsReply, net::AppsJson(*registry_));
    case rpc::FrameType::kReload:
      if (Status status = registry_->Refresh(); !status.ok()) {
        return ErrorFrame(status);
      }
      return Reply(rpc::FrameType::kReloadReply, net::ReloadJson(*registry_));
    case rpc::FrameType::kObserve:
      return HandleObserve(request);
    default:
      return ErrorFrame(Status::InvalidArgument(
          "unsupported frame type " +
          std::to_string(static_cast<int>(request.type))));
  }
}

std::optional<rpc::RpcFrame> ShardServer::HandleFast(
    const rpc::RpcFrame& request) {
  // The one inline rule, before any parse: a large payload goes to the
  // pool whatever it holds.
  if (request.payload.size() > net::kInlineBodyBytes) return std::nullopt;
  switch (request.type) {
    case rpc::FrameType::kRecommend:
      return HandleRecommend(request, /*resident_only=*/true);
    case rpc::FrameType::kObserve:
      return HandleObserve(request);
    default:
      return std::nullopt;
  }
}

std::optional<rpc::RpcFrame> ShardServer::HandleRecommend(
    const rpc::RpcFrame& request, bool resident_only) {
  auto json = net::Json::Parse(request.payload);
  if (!json.ok()) return ErrorFrame(json.status());
  auto answer = net::AnswerRecommend(*service_, *json, resident_only);
  if (!answer.has_value()) return std::nullopt;  // Needs a lazy load.
  if (!answer->ok()) return ErrorFrame(answer->status());
  return Reply(rpc::FrameType::kRecommendReply, std::move(**answer).Dump());
}

rpc::RpcFrame ShardServer::HandleObserve(const rpc::RpcFrame& request) {
  if (online_ == nullptr) {
    return ErrorFrame(Status::FailedPrecondition(
        "online adaptation disabled on this shard"));
  }
  const online::FeedbackCollector::Stats before =
      online_->collector().GetStats();
  if (Status added = online_->ObserveEncoded(request.payload); !added.ok()) {
    return ErrorFrame(added);
  }
  const online::FeedbackCollector::Stats after =
      online_->collector().GetStats();
  net::Json out = net::Json::Obj();
  out.Set("accepted", net::Json::Number(static_cast<double>(
                          after.ingested - before.ingested)))
      .Set("buffered", net::Json::Number(static_cast<double>(after.buffered)));
  return Reply(rpc::FrameType::kObserveReply, out.Dump());
}

}  // namespace juggler::cluster
