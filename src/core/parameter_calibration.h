#ifndef JUGGLER_CORE_PARAMETER_CALIBRATION_H_
#define JUGGLER_CORE_PARAMETER_CALIBRATION_H_

#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/schedule.h"
#include "math/linear_model.h"
#include "minispark/application.h"
#include "minispark/cluster.h"
#include "minispark/engine.h"

namespace juggler::core {

/// Builds the application for given parameters (the workload factory).
using AppFactory =
    std::function<minispark::Application(const minispark::AppParams&)>;

/// \brief Training arrays for the full-factorial design (§5.2): all
/// combinations of `examples` x `features` are run; the paper uses arrays of
/// size 3, i.e. 9 experiments.
struct TrainingGrid {
  std::vector<double> examples;
  std::vector<double> features;
  int iterations = 2;  ///< Iteration count used for the training runs.
};

/// \brief Result of the parameter-calibration stage: one fitted size model
/// per dataset appearing in any schedule, and the stage's training cost.
struct SizeCalibration {
  std::map<DatasetId, math::LinearModel> models;
  double training_machine_minutes = 0.0;
  int experiments = 0;
};

/// \brief Stage 2 (§5.2): runs the full-factorial experiments on the
/// instrumented engine, measures each scheduled dataset's size
/// (MeasureDatasetSizes), and fits the best of the four size-model families
/// by leave-one-out cross-validation.
[[nodiscard]] StatusOr<SizeCalibration> CalibrateSizes(
    const AppFactory& factory, const std::vector<Schedule>& schedules,
    const TrainingGrid& grid, const minispark::ClusterConfig& training_node,
    const minispark::RunOptions& run_options);

/// \brief Predicted peak cached bytes of a schedule at the given parameters
/// (the §5.5 size estimator): evaluates each dataset's size model and takes
/// the plan's peak, honouring unpersists.
[[nodiscard]] StatusOr<double> PredictScheduleBytes(const Schedule& schedule,
                                      const SizeCalibration& calibration,
                                      const minispark::AppParams& params);

}  // namespace juggler::core

#endif  // JUGGLER_CORE_PARAMETER_CALIBRATION_H_
