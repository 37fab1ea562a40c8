#include "service/recommendation_service.h"

#include <chrono>
#include <unordered_map>
#include <utility>

namespace juggler::service {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

Status DeadlineExceeded(double waited_ms, double deadline_ms) {
  return Status::ResourceExhausted(
      "request spent " + std::to_string(waited_ms) +
      " ms in the warm-up queue (deadline " + std::to_string(deadline_ms) +
      " ms); shedding");
}

}  // namespace

RecommendationService::RecommendationService(
    std::shared_ptr<ModelRegistry> registry, const Options& options)
    : registry_(std::move(registry)),
      options_(options),
      cache_(std::make_unique<PredictionCache>(options.cache)),
      pool_(std::make_unique<ThreadPool>(ThreadPool::Options{
          options.num_workers, options.queue_capacity})),
      apps_mu_(lockdiag::RegisterLockClass(
          "service.RecommendationService.apps", lockdiag::kRankService)) {}

RecommendationService::~RecommendationService() {
  // Join workers while the metrics/cache members they touch are still alive.
  pool_->Shutdown();
}

RecommendationService::AppCounters& RecommendationService::CountersFor(
    const std::string& app) {
  MutexLock lock(apps_mu_);
  auto& node = app_counters_[app];
  if (!node) node = std::make_unique<AppCounters>();
  return *node;
}

StatusOr<RecommendResponse> RecommendationService::Answer(
    const ModelRegistry::Resolved& resolved, const RecommendRequest& request,
    Clock::time_point start) {
  AppCounters& app = CountersFor(request.app);
  app.requests.fetch_add(1, std::memory_order_relaxed);
  const std::string key =
      PredictionCache::MakeKey(request.app, resolved.version, request.params,
                               request.machine_type, request.objective);
  StatusOr<RecommendResponse> result = [&]() -> StatusOr<RecommendResponse> {
    if (auto cached = cache_->Get(key)) {
      app.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return RecommendResponse{std::move(cached), /*cache_hit=*/true,
                               resolved.version};
    }
    app.cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (options_.pre_eval_hook) options_.pre_eval_hook();
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    app.evaluations.fetch_add(1, std::memory_order_relaxed);
    auto recs = resolved.model->Recommend(request.params, request.machine_type,
                                          request.objective);
    if (!recs.ok()) return recs.status();
    auto value = std::make_shared<const std::vector<core::Recommendation>>(
        std::move(recs).value());
    cache_->Put(key, value);
    return RecommendResponse{std::move(value), /*cache_hit=*/false,
                             resolved.version};
  }();
  const double elapsed = ElapsedUs(start);
  latency_.Record(elapsed);
  app.latency.Record(elapsed);
  return result;
}

std::optional<StatusOr<RecommendResponse>>
RecommendationService::TryRecommendCached(const RecommendRequest& request) {
  const auto start = Clock::now();
  auto resolved = registry_->ResolveResident(request.app);
  if (!resolved) return std::nullopt;  // Lazy model not resident.
  if (!resolved->ok()) return resolved->status();
  const std::string key = PredictionCache::MakeKey(
      request.app, (*resolved)->version, request.params, request.machine_type,
      request.objective);
  auto cached = cache_->Peek(key);
  if (!cached) return std::nullopt;  // Cold: caller takes the full path.
  AppCounters& app = CountersFor(request.app);
  app.requests.fetch_add(1, std::memory_order_relaxed);
  app.cache_hits.fetch_add(1, std::memory_order_relaxed);
  const double elapsed = ElapsedUs(start);
  latency_.Record(elapsed);
  app.latency.Record(elapsed);
  return StatusOr<RecommendResponse>(RecommendResponse{
      std::move(cached), /*cache_hit=*/true, (*resolved)->version});
}

StatusOr<RecommendResponse> RecommendationService::Recommend(
    const RecommendRequest& request) {
  const auto start = Clock::now();
  auto resolved = registry_->Resolve(request.app);
  if (!resolved.ok()) return resolved.status();
  return Answer(*resolved, request, start);
}

std::optional<StatusOr<RecommendResponse>>
RecommendationService::RecommendIfResident(const RecommendRequest& request) {
  const auto start = Clock::now();
  auto resolved = registry_->ResolveResident(request.app);
  if (!resolved) return std::nullopt;
  if (!resolved->ok()) return resolved->status();
  return Answer(**resolved, request, start);
}

std::future<StatusOr<RecommendResponse>> RecommendationService::RecommendAsync(
    RecommendRequest request) {
  auto promise =
      std::make_shared<std::promise<StatusOr<RecommendResponse>>>();
  auto future = promise->get_future();
  const auto enqueued = Clock::now();
  Status submitted = pool_->Submit(
      [this, enqueued, request = std::move(request), promise] {
        // Shed before evaluating: the client has likely timed out already.
        const double waited_ms = ElapsedUs(enqueued) / 1000.0;
        if (options_.queue_deadline_ms > 0.0 &&
            waited_ms > options_.queue_deadline_ms) {
          deadline_shed_.fetch_add(1, std::memory_order_relaxed);
          promise->set_value(
              DeadlineExceeded(waited_ms, options_.queue_deadline_ms));
          return;
        }
        promise->set_value(Recommend(request));
      });
  if (!submitted.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(submitted);
  }
  return future;
}

std::vector<StatusOr<RecommendResponse>> RecommendationService::RecommendBatch(
    const std::vector<RecommendRequest>& requests) {
  return *AnswerBatch(requests, /*resident_only=*/false);
}

std::optional<std::vector<StatusOr<RecommendResponse>>>
RecommendationService::RecommendBatchIfResident(
    const std::vector<RecommendRequest>& requests) {
  return AnswerBatch(requests, /*resident_only=*/true);
}

std::optional<std::vector<StatusOr<RecommendResponse>>>
RecommendationService::AnswerBatch(
    const std::vector<RecommendRequest>& requests, bool resident_only) {
  // Group identical questions so each unique key is evaluated exactly once,
  // then fan the shared answer back out to every duplicate slot. Every slot
  // resolves before anything is answered, so a resident-only batch that
  // needs a load declines with nothing evaluated or counted.
  struct Group {
    ModelRegistry::Resolved resolved;
    size_t first_index = 0;
    std::vector<size_t> indices;
  };
  std::unordered_map<std::string, Group> groups;
  std::vector<Status> resolve_errors(requests.size(), Status::OK());
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<ModelRegistry::Resolved> resolved =
        Status::Internal("slot not resolved");
    if (resident_only) {
      auto resident = registry_->ResolveResident(requests[i].app);
      if (!resident.has_value()) return std::nullopt;  // Needs a lazy load.
      resolved = *std::move(resident);
    } else {
      resolved = registry_->Resolve(requests[i].app);
    }
    if (!resolved.ok()) {
      resolve_errors[i] = resolved.status();
      continue;
    }
    std::string key = PredictionCache::MakeKey(
        requests[i].app, resolved->version, requests[i].params,
        requests[i].machine_type, requests[i].objective);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) {
      it->second.resolved = std::move(resolved).value();
      it->second.first_index = i;
    }
    it->second.indices.push_back(i);
  }

  std::vector<StatusOr<RecommendResponse>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(resolve_errors[i].ok()
                             ? Status::Internal("batch slot not filled")
                             : resolve_errors[i]);
  }
  for (const auto& [key, group] : groups) {
    StatusOr<RecommendResponse> result =
        Answer(group.resolved, requests[group.first_index], Clock::now());
    for (size_t index : group.indices) {
      results[index] = result;  // Duplicates share the answer snapshot.
    }
  }
  return results;
}

RecommendationService::Stats RecommendationService::GetStats() const {
  Stats stats;
  stats.cache = cache_->GetStats();
  stats.latency = latency_.GetSnapshot();
  stats.evaluations = evaluations_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  MutexLock lock(apps_mu_);
  for (const auto& [name, counters] : app_counters_) {
    AppStats& app = stats.per_app[name];
    app.requests = counters->requests.load(std::memory_order_relaxed);
    app.cache_hits = counters->cache_hits.load(std::memory_order_relaxed);
    app.cache_misses = counters->cache_misses.load(std::memory_order_relaxed);
    app.evaluations = counters->evaluations.load(std::memory_order_relaxed);
    app.latency = counters->latency.GetSnapshot();
  }
  return stats;
}

}  // namespace juggler::service
