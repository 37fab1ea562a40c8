#include "online/online_loop.h"

#include <limits>
#include <utility>

#include "common/lock_diag.h"
#include "common/thread_name.h"
#include "online/online_metrics.h"

namespace juggler::online {

OnlineJuggler::OnlineJuggler(
    std::shared_ptr<service::ModelRegistry> registry,
    std::shared_ptr<service::RecommendationService> service,
    const Options& options)
    : registry_(std::move(registry)),
      service_(std::move(service)),
      options_(options),
      collector_(std::make_unique<FeedbackCollector>(options.collector)),
      engine_(options.refit),
      publisher_(std::make_unique<ModelPublisher>(registry_->directory())),
      attempts_mu_(lockdiag::RegisterLockClass("online.OnlineJuggler.attempts",
                                               lockdiag::kRankLeaf)) {
  MarkOnlineActive();
}

OnlineJuggler::~OnlineJuggler() { Stop(); }

void OnlineJuggler::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread([this] {
    SetCurrentThreadName("jg-online");
    Loop();
  });
}

void OnlineJuggler::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

size_t OnlineJuggler::Observe(std::vector<Observation> batch) {
  return collector_->AddAll(std::move(batch));
}

Status OnlineJuggler::ObserveEncoded(std::string_view bytes) {
  return collector_->AddEncoded(bytes);
}

int64_t OnlineJuggler::SinceLastAttemptMs(const std::string& app) const {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(attempts_mu_);
  auto it = last_attempt_.find(app);
  if (it == last_attempt_.end()) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                               it->second)
      .count();
}

void OnlineJuggler::SetLastAttempt(const std::string& app) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(attempts_mu_);
  last_attempt_[app] = now;
}

OnlineJuggler::AttemptResult OnlineJuggler::MaybeRefit(const std::string& app,
                                                      size_t* consumed) {
  {
    const std::vector<Observation> pending = collector_->SnapshotApp(app);
    const bool triggered =
        engine_.CountTriggered(pending.size()) ||
        engine_.IntervalTriggered(SinceLastAttemptMs(app), pending.size()) ||
        engine_.ErrorTriggered(pending);
    if (!triggered) return AttemptResult::kSkipped;
  }
  // Consume the batch whatever the outcome — a retry should see fresh
  // traffic — and refit on exactly what was taken: records that arrive
  // during the refit stay buffered for the next attempt.
  const std::vector<Observation> observations = collector_->TakeApp(app);
  *consumed += observations.size();

  auto resolved = registry_->Resolve(app);
  if (!resolved.ok()) {
    // Observations for an app the registry does not serve: drop them so the
    // buffer cannot be wedged by a misdirected producer.
    SetLastAttempt(app);
    return AttemptResult::kSkipped;
  }

  RecordRefitAttempt();
  SetLastAttempt(app);
  auto outcome = engine_.Refit(*resolved->model, observations);
  if (!outcome.ok()) {
    RecordRefitRejected();
    return AttemptResult::kRejected;
  }
  SetHoldoutErrors(outcome->candidate_error, outcome->incumbent_error);
  if (!outcome->accepted) {
    RecordRefitRejected();
    return AttemptResult::kRejected;
  }
  Status published = publisher_->Publish(outcome->candidate);
  if (!published.ok()) {
    RecordPublishFailure();
    RecordRefitRejected();
    return AttemptResult::kRejected;
  }
  // The swap is on disk; make it serve. A refresh failure here leaves the
  // old snapshot in place — the next periodic refresh picks the file up.
  Status refreshed = registry_->Refresh();
  (void)refreshed;
  SetActiveModelVersion(registry_->version());
  if (service_ != nullptr) {
    // Version-keyed cache entries for the replaced model can never be
    // served again; flushing reclaims their LRU capacity immediately.
    service_->cache().FlushApp(app);
  }
  RecordRefitAccepted();
  return AttemptResult::kAccepted;
}

OnlineJuggler::CycleOutcome OnlineJuggler::RunOnce() {
  CycleOutcome cycle;
  for (const std::string& app : collector_->Apps()) {
    switch (MaybeRefit(app, &cycle.consumed)) {
      case AttemptResult::kAccepted:
        ++cycle.attempted;
        ++cycle.accepted;
        break;
      case AttemptResult::kRejected:
        ++cycle.attempted;
        ++cycle.rejected;
        break;
      case AttemptResult::kSkipped:
        break;
    }
  }
  return cycle;
}

Status OnlineJuggler::Rollback(const std::string& app) {
  JUGGLER_RETURN_IF_ERROR(publisher_->Rollback(app));
  RecordRollback();
  Status refreshed = registry_->Refresh();
  if (refreshed.ok()) SetActiveModelVersion(registry_->version());
  return refreshed;
}

void OnlineJuggler::Loop() {
  constexpr int64_t kSliceMs = 20;
  int64_t since_poll_ms = options_.poll_interval_ms;  // Poll immediately.
  while (!stop_.load()) {
    if (since_poll_ms >= options_.poll_interval_ms) {
      since_poll_ms = 0;
      RunOnce();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kSliceMs));
    since_poll_ms += kSliceMs;
  }
}

}  // namespace juggler::online
