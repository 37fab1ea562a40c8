#ifndef JUGGLER_ONLINE_ONLINE_LOOP_H_
#define JUGGLER_ONLINE_ONLINE_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "online/feedback_collector.h"
#include "online/model_publisher.h"
#include "online/refit_engine.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"

namespace juggler::online {

/// \brief The closed feedback loop: collector -> refit engine -> holdout
/// gate -> atomic publish -> registry refresh, running beside the serving
/// path in the same process.
///
/// Composition, not logic: the loop owns a FeedbackCollector for intake, a
/// RefitEngine for the (pure) fit/judge step, and a ModelPublisher for the
/// swap. Its own job is scheduling — when to look at which app — plus the
/// post-accept plumbing: Refresh() the registry so the new artifact starts
/// serving, flush the app's prediction-cache entries, and export the
/// `juggler_online_*` counters.
///
/// Every refit attempt (accepted or not) consumes the app's buffered
/// observations: a rejected candidate should be retried against *new*
/// traffic, not respun forever on the batch that already failed the gate.
class OnlineJuggler {
 public:
  struct Options {
    FeedbackCollector::Options collector;
    RefitEngine::Options refit;
    /// How often the background thread scans the buffer for triggered apps.
    int64_t poll_interval_ms = 500;
  };

  /// What one RunOnce() pass did, for logs and tests.
  struct CycleOutcome {
    size_t attempted = 0;
    size_t accepted = 0;
    size_t rejected = 0;
    /// Observations taken out of the buffer by triggered attempts, whether
    /// refit on or discarded (an app the registry does not serve).
    size_t consumed = 0;
  };

  /// `service` may be null (no prediction cache to flush — e.g. tests that
  /// drive the registry directly).
  OnlineJuggler(std::shared_ptr<service::ModelRegistry> registry,
                std::shared_ptr<service::RecommendationService> service,
                const Options& options);
  ~OnlineJuggler();

  OnlineJuggler(const OnlineJuggler&) = delete;
  OnlineJuggler& operator=(const OnlineJuggler&) = delete;

  /// Starts the background poll thread. Idempotent.
  void Start();

  /// Stops and joins the background thread. Idempotent; the destructor
  /// calls it.
  void Stop();

  /// Buffers observations (any app). Returns how many were accepted.
  size_t Observe(std::vector<Observation> batch);

  /// Decodes one wire-format batch and buffers it. InvalidArgument on
  /// malformed bytes.
  [[nodiscard]] Status ObserveEncoded(std::string_view bytes);

  /// One synchronous pass over every app with buffered observations:
  /// evaluates triggers, refits, publishes accepted candidates, refreshes
  /// the registry. The background thread calls this; tests can too.
  CycleOutcome RunOnce();

  /// Re-publishes the last-good artifact for `app` and refreshes the
  /// registry so it serves again. NotFound when nothing was stashed.
  [[nodiscard]] Status Rollback(const std::string& app);

  FeedbackCollector& collector() { return *collector_; }

 private:
  /// Evaluates triggers for one app and, when fired, takes its buffered
  /// observations (adding their count to `*consumed`) and runs the full
  /// refit/gate/publish sequence. kSkipped when no trigger fired.
  enum class AttemptResult { kAccepted, kRejected, kSkipped };
  AttemptResult MaybeRefit(const std::string& app, size_t* consumed);

  /// Milliseconds since the last refit attempt for `app` (int64 max when
  /// never attempted). Self-contained locking so callers hold no lock
  /// across the blocking refit/publish path.
  int64_t SinceLastAttemptMs(const std::string& app) const;
  void SetLastAttempt(const std::string& app);

  void Loop();

  const std::shared_ptr<service::ModelRegistry> registry_;
  const std::shared_ptr<service::RecommendationService> service_;
  const Options options_;
  std::unique_ptr<FeedbackCollector> collector_;
  RefitEngine engine_;
  std::unique_ptr<ModelPublisher> publisher_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;

  /// Lock class "online.OnlineJuggler.attempts" (leaf rank): guards only
  /// the last-attempt timestamp map.
  mutable Mutex attempts_mu_;
  std::map<std::string, std::chrono::steady_clock::time_point> last_attempt_
      GUARDED_BY(attempts_mu_);
};

}  // namespace juggler::online

#endif  // JUGGLER_ONLINE_ONLINE_LOOP_H_
