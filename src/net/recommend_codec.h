#ifndef JUGGLER_NET_RECOMMEND_CODEC_H_
#define JUGGLER_NET_RECOMMEND_CODEC_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/json.h"
#include "online/observation.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::net {

/// \brief The recommend API's JSON wire codec, shared by every edge that
/// speaks it: the HTTP front end (http_recommend_server), the RPC shard
/// backends (cluster::ShardServer) and the router (cluster::Router). One
/// parser, one serializer — a router can forward a shard's reply verbatim
/// because both ends agree on these exact shapes.

/// HTTP status for a Status code: InvalidArgument/OutOfRange -> 400,
/// NotFound -> 404, ResourceExhausted/FailedPrecondition -> 503,
/// everything else -> 500.
int HttpStatusFor(StatusCode code);

/// {"error":{"code":"...","message":"..."}}, the code by CodeName(): the
/// one error document every edge sends (HTTP bodies, JRPC kError payloads).
Json ErrorJson(const Status& status);

/// Reconstructs a Status from an ErrorJson() document (the payload of a
/// kError RPC frame). Malformed documents become kInternal with the raw
/// payload quoted, so a corrupt shard reply is never mistaken for success.
Status StatusFromErrorJson(const std::string& payload);

/// Decodes the HTTP/RPC wire format into a service request:
///   {"app":"svm","params":{"examples":N,"features":N,"iterations":N},
///    "machine":{"machine_gb":G}}           // machine optional
StatusOr<service::RecommendRequest> ParseRecommendRequest(const Json& json);

/// \brief Encoded JSON text from a direct writer. `Dump()` hands it out,
/// so call sites read the same as for a Json value's Dump().
class JsonText {
 public:
  explicit JsonText(std::string text) : text_(std::move(text)) {}
  const std::string& Dump() const& { return text_; }
  std::string Dump() && { return std::move(text_); }

 private:
  std::string text_;
};

/// Serializes one recommend response (app echo, cache_hit, model_version,
/// recommendations array) straight into one reserved string, in the fixed
/// key order
///   {"app":..,"cache_hit":..,"model_version":..,"recommendations":[
///     {"schedule_id":..,"plan":..,"predicted_bytes":..,"machines":..,
///      "predicted_time_ms":..,"predicted_cost_machine_min":..,
///      "objective_score":..},...]}
/// with AppendJsonString/AppendJsonNumber: byte-identical to building the
/// same members with Json::Obj().Set(...) and calling Dump().
JsonText ResponseJson(const std::string& app,
                      const service::RecommendResponse& response);

/// The answer to one recommend question, the same on every edge that
/// serves one (the HTTP front end and a shard): `json` decoded by
/// ParseRecommendRequest, resolved by `service` (RecommendIfResident when
/// `resident_only`, else the blocking Recommend) and encoded by
/// ResponseJson. nullopt only when `resident_only` and the app's model needs
/// a lazy load; a decode or service error is the StatusOr's status.
std::optional<StatusOr<JsonText>> AnswerRecommend(
    service::RecommendationService& service, const Json& json,
    bool resident_only);

/// The registry listing every edge serves (GET /v1/apps, a shard's kApps
/// reply; the router forwards a shard's verbatim):
///   {"version":V,"apps":["lir",...]}
std::string AppsJson(const service::ModelRegistry& registry);

/// What the registry's last refresh did, served after a successful
/// POST /v1/reload (a shard's kReload reply):
///   {"version":V,"models":N,"refresh":{"scanned":N,"parsed":N,
///    "reused":N,"removed":N,"failed":N}}
std::string ReloadJson(const service::ModelRegistry& registry);

/// Maps a Status to the HTTP response the API uses (HttpStatusFor + JSON
/// error body; 503 carries Retry-After).
HttpResponse ErrorResponse(const Status& status);

/// 405 for a known path asked with the wrong method; `allow` is the one
/// method it takes (also sent as the Allow header).
HttpResponse MethodNotAllowed(const std::string& allow);

/// Decodes the JSON form of POST /v1/observe: a top-level array of
///   {"kind":"run_time"|"dataset_size"|"serve_latency","app":"svm",
///    "target":N,"params":{"examples":N,"features":N,"iterations":N},
///    "model_version":N,"value":N,"predicted":N}   // predicted optional
/// The HTTP edge re-encodes the result through the binary wire format before
/// buffering, so both ingestion paths exercise the same validation.
StatusOr<std::vector<online::Observation>> ParseObservationsJson(
    const Json& json);

}  // namespace juggler::net

#endif  // JUGGLER_NET_RECOMMEND_CODEC_H_
