#ifndef JUGGLER_CORE_JUGGLER_H_
#define JUGGLER_CORE_JUGGLER_H_

#include <string>

#include "common/status.h"
#include "core/dataset_metrics.h"
#include "core/exec_time_model.h"
#include "core/memory_calibration.h"
#include "core/parameter_calibration.h"
#include "core/recommender.h"
#include "minispark/cluster.h"
#include "minispark/engine.h"

namespace juggler::core {

/// \brief Stage 2 grid (size models): tiny datasets on the training node,
/// minispark::TrainingNode(), which also runs stage 1.
inline const TrainingGrid kSizeGrid{{1000, 2000, 4000}, {250, 500, 1000}, 2};

/// \brief Configuration of the four offline training stages (§5, Figure 8).
/// Stage 1 samples at fixed small parameters and stage 2 runs kSizeGrid,
/// both on minispark::TrainingNode(); stages 3-4 train for the target
/// machine type, minispark::PaperCluster(1).
struct JugglerConfig {
  /// Stage 4 grid (time models): realistic sizes on the target cluster.
  TrainingGrid time_grid;
  /// Reference parameters for stage 3 (feature count held fixed while the
  /// example count is solved so the first schedule fills M).
  minispark::AppParams memory_reference{10000, 1000, 3};
  minispark::RunOptions run_options;
};

/// \brief The paper's training recipe (§7.1) for a workload whose paper
/// parameters are `paper_params`: the time experiments run at 0.4x, 0.7x and
/// 1x its examples and features, at its iteration count, and memory is
/// calibrated at `paper_params`. Every other field keeps its default; callers
/// set their own run options.
JugglerConfig PaperTrainingConfig(const minispark::AppParams& paper_params);

/// \brief Machine-minutes spent per training stage (Figure 16 / Table 5).
struct TrainingCosts {
  double hotspot = 0.0;
  double parameter_calibration = 0.0;
  double memory_calibration = 0.0;
  double time_models = 0.0;

  /// The paper's "optimization" training cost (stages 1-3).
  double Optimization() const {
    return hotspot + parameter_calibration + memory_calibration;
  }
  /// The paper's "prediction" training cost (stage 4).
  double Prediction() const { return time_models; }
  double Total() const { return Optimization() + Prediction(); }
};

/// \brief The end-to-end offline training result.
struct TrainingResult {
  TrainedJuggler trained;
  TrainingCosts costs;
};

/// \brief Runs the four offline stages in order (§5.1-§5.4): hotspot
/// detection on one instrumented sample run, parameter calibration,
/// memory calibration, and per-schedule execution-time models.
[[nodiscard]] StatusOr<TrainingResult> TrainJuggler(const std::string& app_name,
                                      const AppFactory& factory,
                                      const JugglerConfig& config);

}  // namespace juggler::core

#endif  // JUGGLER_CORE_JUGGLER_H_
