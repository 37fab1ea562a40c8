#include "core/exec_time_model.h"

#include "math/nnls.h"

namespace juggler::core {

using minispark::AppParams;
using minispark::Engine;
using minispark::RunOptions;

StatusOr<std::vector<TimeModelResult>> BuildTimeModels(
    const AppFactory& factory, const std::vector<Schedule>& schedules,
    const SizeCalibration& sizes, double memory_factor,
    const minispark::ClusterConfig& machine_type, const TrainingGrid& grid,
    const RunOptions& run_options) {
  if (grid.examples.empty() || grid.features.empty()) {
    return Status::InvalidArgument("BuildTimeModels: empty training grid");
  }

  std::vector<TimeModelResult> out(
      schedules.size(),
      TimeModelResult{math::LinearModel("unfitted", {}, {}), 0.0, {}});
  std::vector<std::vector<math::Observation>> observations(schedules.size());
  RunOptions options = run_options;

  for (double e : grid.examples) {
    for (double f : grid.features) {
      const AppParams params{e, f, grid.iterations};
      const minispark::Application app = factory(params);
      const Engine engine(options);
      for (size_t s = 0; s < schedules.size(); ++s) {
        auto bytes = PredictScheduleBytes(schedules[s], sizes, params);
        if (!bytes.ok()) return bytes.status();
        const int machines =
            RecommendMachines(*bytes, machine_type, memory_factor);
        auto result = engine.Run(app, machine_type.WithMachines(machines),
                                 schedules[s].plan);
        if (!result.ok()) return result.status();
        out[s].training_machine_minutes += result->CostMachineMinutes();
        out[s].machines_used.push_back(machines);
        observations[s].push_back(
            math::Observation{params.AsVector(), result->duration_ms});
      }
      options.seed += 1;
    }
  }

  for (size_t s = 0; s < schedules.size(); ++s) {
    auto model = math::SelectModelByCrossValidation(
        math::MakeTimeModelFamilies(), observations[s]);
    if (!model.ok()) return model.status();
    out[s].model = std::move(model).value();
  }
  return out;
}

double IterationExtension::Rescale(double main_prediction_ms,
                                   int iterations) const {
  const double base = a + b * static_cast<double>(base_iterations);
  if (base <= 0.0) return main_prediction_ms;
  return main_prediction_ms * (a + b * static_cast<double>(iterations)) / base;
}

StatusOr<IterationExtension> BuildIterationExtension(
    const AppFactory& factory, const Schedule& schedule,
    const SizeCalibration& sizes, double memory_factor,
    const minispark::ClusterConfig& machine_type,
    const minispark::AppParams& reference, const std::vector<int>& extra_counts,
    const RunOptions& run_options) {
  if (extra_counts.size() < 2) {
    return Status::InvalidArgument(
        "BuildIterationExtension: need at least two iteration counts to fit "
        "a line");
  }
  // The iteration count does not influence dataset sizes (§6.1), so the
  // recommended configuration is fixed across the experiments.
  auto bytes = PredictScheduleBytes(schedule, sizes, reference);
  if (!bytes.ok()) return bytes.status();
  const int machines = RecommendMachines(*bytes, machine_type, memory_factor);

  math::Matrix a(static_cast<int>(extra_counts.size()), 2);
  std::vector<double> b(extra_counts.size());
  RunOptions options = run_options;
  for (size_t i = 0; i < extra_counts.size(); ++i) {
    minispark::AppParams params = reference;
    params.iterations = extra_counts[i];
    minispark::Engine engine(options);
    auto result = engine.Run(factory(params),
                             machine_type.WithMachines(machines),
                             schedule.plan);
    if (!result.ok()) return result.status();
    a(static_cast<int>(i), 0) = 1.0;
    a(static_cast<int>(i), 1) = static_cast<double>(extra_counts[i]);
    b[i] = result->duration_ms;
    options.seed += 1;
  }
  std::vector<double> theta;
  JUGGLER_RETURN_IF_ERROR(math::NonNegativeLeastSquares(a, b, &theta));

  IterationExtension ext;
  ext.a = theta[0];
  ext.b = theta[1];
  ext.base_iterations = reference.iterations;
  return ext;
}

}  // namespace juggler::core
