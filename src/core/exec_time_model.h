#ifndef JUGGLER_CORE_EXEC_TIME_MODEL_H_
#define JUGGLER_CORE_EXEC_TIME_MODEL_H_

#include <vector>

#include "common/status.h"
#include "core/memory_calibration.h"
#include "core/parameter_calibration.h"
#include "math/linear_model.h"

namespace juggler::core {

/// \brief Result of the execution-time-model stage for one schedule (§5.4).
struct TimeModelResult {
  math::LinearModel model;
  double training_machine_minutes = 0.0;
  /// Machine count used for each training experiment (the recommended
  /// configuration for that experiment's parameters).
  std::vector<int> machines_used;
};

/// \brief Stage 4 (§5.4): runs the full-factorial experiments for every
/// schedule — each on the cluster configuration recommended for its
/// parameters — and fits, per schedule, the best of the four time-model
/// families by leave-one-out cross-validation. Returns one result per
/// schedule, in order.
///
/// Each grid point's application is built once and run under every
/// schedule; run k of every schedule has seed `run_options.seed + k`.
///
/// The resulting models predict execution time at the *optimal* machine
/// count, so machine count is not a model input.
[[nodiscard]] StatusOr<std::vector<TimeModelResult>> BuildTimeModels(
    const AppFactory& factory, const std::vector<Schedule>& schedules,
    const SizeCalibration& sizes, double memory_factor,
    const minispark::ClusterConfig& machine_type, const TrainingGrid& grid,
    const minispark::RunOptions& run_options);

/// \brief The §6.1 extension: iterative applications take the iteration
/// count as a parameter, and the main execution-time model holds it fixed.
/// This linear extension, extracted from a few additional experiments that
/// vary only the iteration count, rescales the main model's prediction:
///
///   time(e, f, i) = main(e, f) * (a + b*i) / (a + b*i_base)
struct IterationExtension {
  double a = 0.0;
  double b = 0.0;
  int base_iterations = 1;  ///< Iteration count the main model was trained at.

  /// Scales a main-model prediction from base_iterations to `iterations`.
  double Rescale(double main_prediction_ms, int iterations) const;
};

/// \brief Runs `extra_counts.size()` additional experiments at the given
/// iteration counts (fixed reference parameters, recommended machines) and
/// fits the linear time-vs-iterations extension.
[[nodiscard]] StatusOr<IterationExtension> BuildIterationExtension(
    const AppFactory& factory, const Schedule& schedule,
    const SizeCalibration& sizes, double memory_factor,
    const minispark::ClusterConfig& machine_type,
    const minispark::AppParams& reference, const std::vector<int>& extra_counts,
    const minispark::RunOptions& run_options);

}  // namespace juggler::core

#endif  // JUGGLER_CORE_EXEC_TIME_MODEL_H_
