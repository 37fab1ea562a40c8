#include "core/parameter_calibration.h"

#include <set>

#include "core/dataset_metrics.h"

namespace juggler::core {

using minispark::AppParams;
using minispark::Engine;
using minispark::RunOptions;

StatusOr<SizeCalibration> CalibrateSizes(
    const AppFactory& factory, const std::vector<Schedule>& schedules,
    const TrainingGrid& grid, const minispark::ClusterConfig& training_node,
    const RunOptions& run_options) {
  if (grid.examples.empty() || grid.features.empty()) {
    return Status::InvalidArgument("CalibrateSizes: empty training grid");
  }
  std::set<DatasetId> wanted;
  for (const Schedule& s : schedules) {
    for (DatasetId d : s.datasets) wanted.insert(d);
  }
  SizeCalibration out;
  if (wanted.empty()) return out;

  RunOptions options = run_options;
  options.instrument = true;

  // Full-factorial experiments; each contributes one observation per
  // scheduled dataset.
  std::map<DatasetId, std::vector<math::Observation>> observations;
  Engine engine(options);
  for (double e : grid.examples) {
    for (double f : grid.features) {
      const AppParams params{e, f, grid.iterations};
      const minispark::Application app = factory(params);
      auto result = engine.RunDefault(app, training_node);
      if (!result.ok()) return result.status();
      out.training_machine_minutes += result->CostMachineMinutes();
      ++out.experiments;
      auto sizes = MeasureDatasetSizes(*result->profile);
      if (!sizes.ok()) return sizes.status();
      for (DatasetId d : wanted) {
        const auto id = static_cast<size_t>(d);
        if (id >= sizes->size()) continue;
        observations[d].push_back({params.AsVector(), (*sizes)[id]});
      }
      // Seed variation across experiments keeps noise independent.
      options.seed += 1;
      engine = Engine(options);
    }
  }

  for (DatasetId d : wanted) {
    auto it = observations.find(d);
    if (it == observations.end() || it->second.empty()) {
      return Status::Internal("no size observations for scheduled dataset " +
                              std::to_string(d) +
                              " (did the training runs materialize it?)");
    }
    auto model =
        math::SelectModelByCrossValidation(math::MakeSizeModelFamilies(),
                                           it->second);
    if (!model.ok()) return model.status();
    out.models.emplace(d, std::move(model).value());
  }
  return out;
}

StatusOr<double> PredictScheduleBytes(const Schedule& schedule,
                                      const SizeCalibration& calibration,
                                      const AppParams& params) {
  std::map<DatasetId, double> predicted;
  for (DatasetId d : schedule.datasets) {
    auto it = calibration.models.find(d);
    if (it == calibration.models.end()) {
      return Status::NotFound("no size model for dataset " + std::to_string(d));
    }
    predicted[d] = it->second.Predict(params.AsVector());
  }
  return PeakPlanBytes(schedule.plan, predicted);
}

}  // namespace juggler::core
