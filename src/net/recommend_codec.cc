#include "net/recommend_codec.h"

#include <cstdint>
#include <utility>

#include "common/parse.h"
#include "common/units.h"
#include "minispark/cluster.h"

namespace juggler::net {

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
    case StatusCode::kFailedPrecondition:
      return 503;  // Transient: full queue / not ready. Retry with backoff.
    default:
      return 500;
  }
}

Json ErrorJson(const Status& status) {
  Json error = Json::Obj();
  error.Set("code", Json::Str(CodeName(status.code())))
      .Set("message", Json::Str(status.message()));
  return Json::Obj().Set("error", std::move(error));
}

Status StatusFromErrorJson(const std::string& payload) {
  auto json = Json::Parse(payload);
  if (json.ok() && json->is_object()) {
    if (const Json* error = json->Find("error");
        error != nullptr && error->is_object()) {
      const StatusCode code = CodeFromName(error->StringOr("code", ""));
      const std::string message = error->StringOr("message", "");
      if (code != StatusCode::kOk && !message.empty()) {
        return Status(code, message);
      }
    }
  }
  return Status::Internal("malformed error payload: " + payload);
}

StatusOr<service::RecommendRequest> ParseRecommendRequest(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  service::RecommendRequest request;
  const Json* app = json.Find("app");
  if (app == nullptr || !app->is_string() || app->string_value().empty()) {
    return Status::InvalidArgument("missing required string field 'app'");
  }
  request.app = app->string_value();

  const Json* params = json.Find("params");
  if (params == nullptr || !params->is_object()) {
    return Status::InvalidArgument("missing required object field 'params'");
  }
  const Json* examples = params->Find("examples");
  const Json* features = params->Find("features");
  if (examples == nullptr || !examples->is_number() ||
      examples->number_value() <= 0.0) {
    return Status::InvalidArgument("'params.examples' must be a number > 0");
  }
  if (features == nullptr || !features->is_number() ||
      features->number_value() <= 0.0) {
    return Status::InvalidArgument("'params.features' must be a number > 0");
  }
  request.params.examples = examples->number_value();
  request.params.features = features->number_value();
  const double iterations = params->NumberOr("iterations", 1.0);
  if (iterations < 1.0 || iterations > 1e9) {
    return Status::InvalidArgument("'params.iterations' must be in [1, 1e9]");
  }
  request.params.iterations = static_cast<int>(iterations);

  // Machine type: the paper's private-cluster node unless overridden.
  request.machine_type = minispark::PaperCluster(1);
  double machine_gb = 12.0;
  if (const Json* machine = json.Find("machine"); machine != nullptr) {
    if (!machine->is_object()) {
      return Status::InvalidArgument("'machine' must be an object");
    }
    machine_gb = machine->NumberOr("machine_gb", machine_gb);
    if (machine_gb <= 0.0) {
      return Status::InvalidArgument("'machine.machine_gb' must be > 0");
    }
  }
  request.machine_type.executor_memory_bytes = GiB(machine_gb);

  // Multi-objective weights. Omitted -> classic cost-only ordering. When the
  // object is present, every omitted weight is 0 — "optimize what you name".
  if (const Json* objective = json.Find("objective"); objective != nullptr) {
    if (!objective->is_object()) {
      return Status::InvalidArgument("'objective' must be an object");
    }
    core::Objective weights{0.0, 0.0, 0.0};
    struct Field {
      const char* name;
      double* value;
    };
    const Field fields[] = {{"cost", &weights.cost},
                            {"p99_latency", &weights.p99_latency},
                            {"memory", &weights.memory}};
    for (const Field& field : fields) {
      if (const Json* value = objective->Find(field.name); value != nullptr) {
        if (!value->is_number()) {
          return Status::InvalidArgument(std::string("'objective.") +
                                         field.name + "' must be a number");
        }
        *field.value = value->number_value();
      }
    }
    JUGGLER_RETURN_IF_ERROR(weights.Validate());
    request.objective = weights;
  }
  return request;
}

JsonText ResponseJson(const std::string& app,
                      const service::RecommendResponse& response) {
  const std::vector<core::Recommendation>& recommendations =
      *response.recommendations;
  // About 200 bytes per recommendation; one allocation for typical replies.
  std::string out;
  out.reserve(96 + app.size() + 224 * recommendations.size());
  out.append("{\"app\":");
  AppendJsonString(&out, app);
  out.append(response.cache_hit ? ",\"cache_hit\":true"
                                 : ",\"cache_hit\":false");
  out.append(",\"model_version\":");
  AppendJsonNumber(&out, static_cast<double>(response.model_version));
  out.append(",\"recommendations\":[");
  for (size_t i = 0; i < recommendations.size(); ++i) {
    const core::Recommendation& r = recommendations[i];
    out.append(i == 0 ? "{\"schedule_id\":" : ",{\"schedule_id\":");
    AppendJsonNumber(&out, r.schedule_id);
    // The plan notation ("-", "p(1) u(1) p(3)") has no byte to escape.
    out.append(",\"plan\":\"");
    r.plan.AppendTo(&out);
    out.append("\",\"predicted_bytes\":");
    AppendJsonNumber(&out, r.predicted_bytes);
    out.append(",\"machines\":");
    AppendJsonNumber(&out, r.machines);
    out.append(",\"predicted_time_ms\":");
    AppendJsonNumber(&out, r.predicted_time_ms);
    out.append(",\"predicted_cost_machine_min\":");
    AppendJsonNumber(&out, r.predicted_cost_machine_min);
    out.append(",\"objective_score\":");
    AppendJsonNumber(&out, r.objective_score);
    out.push_back('}');
  }
  out.append("]}");
  return JsonText(std::move(out));
}

StatusOr<std::vector<online::Observation>> ParseObservationsJson(
    const Json& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("observations must be a JSON array");
  }
  std::vector<online::Observation> out;
  out.reserve(json.array_items().size());
  for (size_t i = 0; i < json.array_items().size(); ++i) {
    const Json& record = json.array_items()[i];
    const std::string at = "observation " + std::to_string(i);
    if (!record.is_object()) {
      return Status::InvalidArgument(at + " must be an object");
    }
    online::Observation o;
    const std::string kind = record.StringOr("kind", "");
    if (kind == "run_time") {
      o.kind = online::ObservationKind::kRunTime;
    } else if (kind == "dataset_size") {
      o.kind = online::ObservationKind::kDatasetSize;
    } else {
      return Status::InvalidArgument(at +
                                     ": 'kind' must be run_time or dataset_size");
    }
    o.app = record.StringOr("app", "");
    if (o.app.empty() || o.app.size() > online::kMaxAppBytes) {
      return Status::InvalidArgument(at + ": 'app' must be a string of 1.." +
                                     std::to_string(online::kMaxAppBytes) +
                                     " bytes");
    }
    // NumberOr yields an arbitrary double (1e30, -1e30, NaN all reach
    // here); converting out-of-range doubles with static_cast is undefined
    // behavior, so every conversion below goes through a checked helper.
    const double target = record.NumberOr("target", 0.0);
    int32_t target32 = 0;
    if (!DoubleToInt32(target, &target32)) {
      return Status::InvalidArgument(at +
                                     ": 'target' must be a 32-bit integer");
    }
    o.target = target32;
    const double model_version = record.NumberOr("model_version", 0.0);
    uint64_t model_version64 = 0;
    if (!DoubleToUint64(model_version, &model_version64)) {
      return Status::InvalidArgument(
          at + ": 'model_version' must be a non-negative integer");
    }
    o.model_version = model_version64;
    const Json* params = record.Find("params");
    if (params == nullptr || !params->is_object()) {
      return Status::InvalidArgument(at +
                                     ": missing object field 'params'");
    }
    o.params.examples = params->NumberOr("examples", 0.0);
    o.params.features = params->NumberOr("features", 0.0);
    const double iterations = params->NumberOr("iterations", 1.0);
    int32_t iterations32 = 0;
    if (!DoubleToInt32(iterations, &iterations32) || iterations32 < 0) {
      return Status::InvalidArgument(
          at + ": 'params.iterations' must be an integer >= 0");
    }
    o.params.iterations = iterations32;
    if (o.params.examples <= 0.0 || o.params.features <= 0.0) {
      return Status::InvalidArgument(
          at + ": 'params.examples'/'params.features' must be > 0");
    }
    const Json* value = record.Find("value");
    if (value == nullptr || !value->is_number() ||
        value->number_value() < 0.0) {
      return Status::InvalidArgument(at +
                                     ": 'value' must be a number >= 0");
    }
    o.value = value->number_value();
    o.predicted = record.NumberOr("predicted", 0.0);
    if (o.predicted < 0.0) {
      return Status::InvalidArgument(at + ": 'predicted' must be >= 0");
    }
    out.push_back(std::move(o));
  }
  return out;
}

std::optional<StatusOr<JsonText>> AnswerRecommend(
    service::RecommendationService& service, const Json& json,
    bool resident_only) {
  auto parsed = ParseRecommendRequest(json);
  if (!parsed.ok()) return StatusOr<JsonText>(parsed.status());
  std::optional<StatusOr<service::RecommendResponse>> response;
  if (resident_only) {
    response = service.RecommendIfResident(*parsed);
    if (!response.has_value()) return std::nullopt;  // Needs a lazy load.
  } else {
    response = service.Recommend(*parsed);
  }
  if (!response->ok()) return StatusOr<JsonText>(response->status());
  return StatusOr<JsonText>(ResponseJson(parsed->app, **response));
}

std::string AppsJson(const service::ModelRegistry& registry) {
  Json apps = Json::Arr();
  for (const std::string& name : registry.AppNames()) {
    apps.Append(Json::Str(name));
  }
  Json out = Json::Obj();
  out.Set("version", Json::Number(static_cast<double>(registry.version())))
      .Set("apps", std::move(apps));
  return out.Dump();
}

std::string ReloadJson(const service::ModelRegistry& registry) {
  const auto refresh = registry.last_refresh();
  Json stats = Json::Obj();
  stats.Set("scanned", Json::Number(static_cast<double>(refresh.scanned)))
      .Set("parsed", Json::Number(static_cast<double>(refresh.parsed)))
      .Set("reused", Json::Number(static_cast<double>(refresh.reused)))
      .Set("removed", Json::Number(static_cast<double>(refresh.removed)))
      .Set("failed", Json::Number(static_cast<double>(refresh.failed)));
  Json out = Json::Obj();
  out.Set("version", Json::Number(static_cast<double>(registry.version())))
      .Set("models", Json::Number(static_cast<double>(registry.size())))
      .Set("refresh", std::move(stats));
  return out.Dump();
}

HttpResponse ErrorResponse(const Status& status) {
  const int http_status = HttpStatusFor(status.code());
  HttpResponse response =
      HttpResponse::JsonBody(http_status, ErrorJson(status).Dump());
  if (http_status == 503) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

HttpResponse MethodNotAllowed(const std::string& allow) {
  HttpResponse response = HttpResponse::JsonBody(
      405, ErrorJson(Status::InvalidArgument("method not allowed; use " +
                                             allow))
               .Dump());
  response.headers.emplace_back("Allow", allow);
  return response;
}

}  // namespace juggler::net
