#ifndef JUGGLER_ONLINE_REFIT_ENGINE_H_
#define JUGGLER_ONLINE_REFIT_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"
#include "online/observation.h"

namespace juggler::online {

/// \brief Refits a deployed model from buffered live observations and gates
/// the candidate on a holdout of the most recent ones.
///
/// The engine is pure (no clock, no I/O, no shared state): triggers are
/// predicates the caller evaluates, and Refit() maps (incumbent model,
/// observations) to a candidate plus the holdout verdict. That keeps every
/// accept/reject decision unit-testable and deterministic.
class RefitEngine {
 public:
  struct Options {
    /// Count trigger: refit an app once this many model-target observations
    /// (run-time or dataset-size) are buffered for it.
    size_t min_records = 24;
    /// Interval trigger: refit at most this often even below min_records
    /// (0 disables). The caller owns the clock; see IntervalTriggered().
    int64_t interval_ms = 0;
    /// Error trigger: refit when the observed-vs-predicted mean relative
    /// error across buffered observations exceeds this (0 disables).
    double error_threshold = 0.0;
  };

  /// The verdict for one candidate refit.
  struct Outcome {
    core::TrainedJuggler candidate;
    /// Mean relative holdout error of the incumbent / candidate model set.
    double incumbent_error = 0.0;
    double candidate_error = 0.0;
    /// True iff the candidate strictly improved the holdout error. Only an
    /// accepted candidate may be published.
    bool accepted = false;
    size_t size_models_refit = 0;
    size_t time_models_refit = 0;
  };

  explicit RefitEngine(const Options& options) : options_(options) {}

  /// Fewest model-target observations any trigger may fire at: enough to
  /// carve off a holdout and still have something to fit.
  size_t MinObservations() const;

  bool CountTriggered(size_t model_records) const;
  bool IntervalTriggered(int64_t since_last_attempt_ms,
                         size_t model_records) const;
  bool ErrorTriggered(const std::vector<Observation>& observations) const;

  /// Mean relative |value - predicted| / value across observations that
  /// carry a prediction. 0 when none do.
  static double ObservedError(const std::vector<Observation>& observations);

  /// Holdout error of a model set: each run-time observation is scored
  /// against its schedule's time model, each dataset-size observation
  /// against its dataset's size model. Observations without a matching
  /// model (or value 0) are skipped; returns infinity when nothing scores.
  static double HoldoutError(const core::TrainedJuggler& model,
                             const std::vector<Observation>& holdout);

  /// Refits the incumbent's size/time models on the training split (oldest
  /// observations) and judges the candidate on the holdout (the most recent
  /// quarter, at least three).
  /// Per-target policy: enough data re-selects the family by leave-one-out
  /// cross-validation, a thin slice refits the incumbent's own family, and
  /// too-thin data keeps the incumbent's model untouched. FailedPrecondition
  /// when the observations cannot produce a judgeable candidate at all.
  [[nodiscard]] StatusOr<Outcome> Refit(
      const core::TrainedJuggler& incumbent,
      const std::vector<Observation>& observations) const;

 private:
  Options options_;
};

}  // namespace juggler::online

#endif  // JUGGLER_ONLINE_REFIT_ENGINE_H_
