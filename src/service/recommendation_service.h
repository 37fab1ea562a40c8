#ifndef JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_
#define JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/recommender.h"
#include "minispark/cluster.h"
#include "minispark/types.h"
#include "service/metrics.h"
#include "service/model_registry.h"
#include "service/prediction_cache.h"
#include "service/thread_pool.h"

namespace juggler::service {

/// One recommendation question: which app, the user's parameters, and the
/// machine type of the target cluster.
struct RecommendRequest {
  std::string app;
  minispark::AppParams params;
  minispark::ClusterConfig machine_type;
  /// Multi-objective weights (§5.5 extension). Defaults to the classic
  /// cost-only ordering, which keeps the response bit-identical to the
  /// 2-argument `TrainedJuggler::Recommend()`.
  core::Objective objective;
};

struct RecommendResponse {
  /// The §5.5 Pareto-filtered recommendations. Shared immutable snapshot —
  /// cache hits alias the same vector, so never mutate through it.
  std::shared_ptr<const std::vector<core::Recommendation>> recommendations;
  bool cache_hit = false;
  /// Registry snapshot version of the model that answered.
  uint64_t model_version = 0;
};

/// \brief The online serving front end (§5.5 as a service): model registry +
/// prediction cache behind one request interface.
///
/// Request path: resolve the model from the registry (never blocks on
/// reloads), probe the prediction cache, and on a miss evaluate the model —
/// all on the caller's thread. A resident model is a few closed-form curves
/// (about a microsecond to evaluate), so a thread hop would cost more than
/// the work it moves. The only queue is RecommendAsync()'s warm-up pool,
/// which sheds with ResourceExhausted when full or past its deadline. The
/// serving layer never alters what the model would answer: responses are
/// bit-identical to calling `TrainedJuggler::Recommend()` directly.
class RecommendationService {
 public:
  struct Options {
    /// Worker threads and queue slots of the RecommendAsync() pool.
    int num_workers = 4;
    size_t queue_capacity = 1024;
    /// RecommendAsync() requests that waited in the queue longer than this
    /// are shed with ResourceExhausted instead of being evaluated: under
    /// sustained overload, answering a request the client has likely
    /// already timed out on just wastes a worker. 0 disables.
    double queue_deadline_ms = 0.0;
    PredictionCache::Options cache;
    /// Test/instrumentation hook run immediately before each model
    /// evaluation, on whichever thread evaluates (nullptr to disable).
    std::function<void()> pre_eval_hook;
  };

  /// Per-application slice of the serving counters. `cache_hits` +
  /// `cache_misses` partition answered requests by whether the memo table
  /// supplied the answer; `evaluations` counts model runs (one per miss).
  struct AppStats {
    uint64_t requests = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t evaluations = 0;
    LatencyHistogram::Snapshot latency;
  };

  struct Stats {
    PredictionCache::Stats cache;
    LatencyHistogram::Snapshot latency;
    uint64_t evaluations = 0;  ///< Model evaluations run, on any thread.
    /// RecommendAsync() requests shed by a full warm-up queue; Recommend()
    /// never queues, so it never sheds.
    uint64_t rejected = 0;
    /// RecommendAsync() requests shed because they overstayed
    /// Options::queue_deadline_ms in the warm-up queue.
    uint64_t deadline_shed = 0;
    /// Per-app breakdown, keyed by application name. Only apps that have
    /// been asked about appear (unknown names are rejected before counting,
    /// so label cardinality stays bounded by the registry).
    std::map<std::string, AppStats> per_app;
  };

  RecommendationService(std::shared_ptr<ModelRegistry> registry,
                        const Options& options);
  ~RecommendationService();

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Answers one request on the caller's thread: a cache hit, or a model
  /// evaluation on a miss. Errors: NotFound (unknown app), a lazy artifact
  /// that fails to load, or whatever the model evaluation itself returns.
  [[nodiscard]] StatusOr<RecommendResponse> Recommend(const RecommendRequest& request);

  /// Recommend() for callers that must not block on disk (the event loop):
  /// the same answer and accounting, but the model is resolved with
  /// ModelRegistry::ResolveResident(). Returns nullopt, counting nothing,
  /// when a lazy model would have to be loaded first.
  std::optional<StatusOr<RecommendResponse>> RecommendIfResident(
      const RecommendRequest& request);

  /// Cache-only probe: returns the answer if it can be produced without any
  /// model evaluation or artifact load: a warm cache hit (counted as a hit;
  /// full per-app accounting applies) or a resolve error such as NotFound.
  /// Returns nullopt on a cold key or a non-resident lazy model — neither is
  /// counted. Not on the serving path (HttpRecommendServer calls
  /// RecommendIfResident(), which counts the same hit); kept for callers
  /// that time the cache-only answer.
  std::optional<StatusOr<RecommendResponse>> TryRecommendCached(
      const RecommendRequest& request);

  /// Recommend() on a pool worker, for fire-and-forget warm-ups. The only
  /// path that queues: a full queue resolves the future to ResourceExhausted
  /// at once, and a request that overstays Options::queue_deadline_ms is
  /// shed the same way instead of evaluated. The future is always valid.
  std::future<StatusOr<RecommendResponse>> RecommendAsync(
      RecommendRequest request);

  /// Answers a batch on the caller's thread. Identical questions inside the
  /// batch (same app, parameters, and machine type) are deduplicated:
  /// answered by one Recommend(), with the shared answer fanned back out to
  /// every duplicate slot. Results are positionally aligned with `requests`,
  /// and each equals what a sequential Recommend() of that element would
  /// return.
  std::vector<StatusOr<RecommendResponse>> RecommendBatch(
      const std::vector<RecommendRequest>& requests);

  /// RecommendBatch() for callers that must not block on disk (the event
  /// loop): the same answers and accounting, with every slot resolved by
  /// ModelRegistry::ResolveResident(). Returns nullopt, with no slot
  /// evaluated and nothing counted, when any slot's model would have to be
  /// loaded first.
  std::optional<std::vector<StatusOr<RecommendResponse>>>
  RecommendBatchIfResident(const std::vector<RecommendRequest>& requests);

  Stats GetStats() const EXCLUDES(apps_mu_);

  ModelRegistry& registry() { return *registry_; }
  PredictionCache& cache() { return *cache_; }

 private:
  /// Live per-app counters behind Stats::AppStats. Nodes are created on
  /// first use and never removed, so raw pointers into the map stay valid
  /// for the service's lifetime and the hot path updates them lock-free.
  struct AppCounters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> evaluations{0};
    LatencyHistogram latency;
  };

  /// The counters node for `app`, created on first use. Only called after a
  /// successful registry resolve, so the map's keys are registry app names.
  AppCounters& CountersFor(const std::string& app) EXCLUDES(apps_mu_);

  /// The one answer path behind Recommend() and RecommendIfResident():
  /// cache probe, evaluation on a miss, and the per-app accounting.
  [[nodiscard]] StatusOr<RecommendResponse> Answer(
      const ModelRegistry::Resolved& resolved, const RecommendRequest& request,
      std::chrono::steady_clock::time_point start);

  /// The one batch path behind RecommendBatch() and
  /// RecommendBatchIfResident(): resolve every slot first (`resident_only`:
  /// nullopt as soon as one needs a load), then one Answer() per distinct
  /// question against the snapshot its slots resolved.
  std::optional<std::vector<StatusOr<RecommendResponse>>> AnswerBatch(
      const std::vector<RecommendRequest>& requests, bool resident_only);

  // Nearly mutex-free: shared state is atomics plus the lock-free
  // LatencyHistogram; `apps_mu_` only guards per-app node creation (first
  // request per app), never the counter updates themselves. Lock discipline
  // lives inside the components (ModelRegistry, PredictionCache,
  // ThreadPool), each annotated with GUARDED_BY/EXCLUDES and checked by
  // clang -Wthread-safety.
  std::shared_ptr<ModelRegistry> registry_;
  Options options_;
  std::unique_ptr<PredictionCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  LatencyHistogram latency_;
  std::atomic<uint64_t> evaluations_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_shed_{0};
  /// Lock class "service.RecommendationService.apps" (rank service=20):
  /// held only for map-node creation, a pure in-memory operation.
  mutable Mutex apps_mu_ ACQUIRED_AFTER(lockdiag::kNetOrder)
      ACQUIRED_BEFORE(lockdiag::kRegistryOrder);
  /// unique_ptr nodes: map rehash/rebalance never moves an AppCounters.
  std::map<std::string, std::unique_ptr<AppCounters>> app_counters_
      GUARDED_BY(apps_mu_);
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_RECOMMENDATION_SERVICE_H_
