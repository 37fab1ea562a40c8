#include "core/juggler.h"

#include "common/logging.h"

namespace juggler::core {

using minispark::Engine;
using minispark::RunOptions;

JugglerConfig PaperTrainingConfig(const minispark::AppParams& paper_params) {
  JugglerConfig config;
  config.time_grid = TrainingGrid{
      {0.4 * paper_params.examples, 0.7 * paper_params.examples,
       paper_params.examples},
      {0.4 * paper_params.features, 0.7 * paper_params.features,
       paper_params.features},
      paper_params.iterations};
  config.memory_reference = paper_params;
  return config;
}

StatusOr<TrainingResult> TrainJuggler(const std::string& app_name,
                                      const AppFactory& factory,
                                      const JugglerConfig& config) {
  TrainingCosts costs;

  // Stage 1 — hotspot detection: one instrumented sample run on the
  // training node, with the application's own (developer) caching.
  RunOptions sample_options = config.run_options;
  sample_options.instrument = true;
  Engine sample_engine(sample_options);
  auto sample = sample_engine.RunDefault(factory(config.sample_params),
                                         config.training_node);
  if (!sample.ok()) return sample.status();
  costs.hotspot = sample->CostMachineMinutes();

  const MergedDag dag = BuildMergedDag(*sample->profile);
  auto metrics = DeriveDatasetMetrics(dag, *sample->profile);
  if (!metrics.ok()) return metrics.status();
  auto schedules = DetectHotspots(dag, *metrics, config.hotspot);
  if (!schedules.ok()) return schedules.status();
  if (schedules->empty()) {
    return Status::FailedPrecondition(
        "hotspot detection found no intermediate dataset worth caching in '" +
        app_name + "'");
  }
  JUGGLER_LOG(Info) << app_name << ": " << schedules->size()
                    << " schedule(s) detected";

  // Stage 2 — parameter calibration (size models).
  auto sizes = CalibrateSizes(factory, *schedules, config.size_grid,
                              config.training_node, config.run_options);
  if (!sizes.ok()) return sizes.status();
  costs.parameter_calibration = sizes->training_machine_minutes;

  // Stage 3 — memory calibration (memory factor). The paper calibrates on
  // its first schedule, which in its workloads is always a sizeable
  // dataset; we pick the schedule with the largest memory budget so that a
  // degenerate tiny first schedule (possible under Algorithm 1 when a small
  // dataset has a long recomputation chain) cannot neuter the calibration.
  const Schedule* calib_schedule = &schedules->front();
  for (const Schedule& s : *schedules) {
    if (s.memory_bytes > calib_schedule->memory_bytes) calib_schedule = &s;
  }
  auto memory = CalibrateMemory(factory, *calib_schedule, *sizes,
                                config.machine_type, config.memory_reference,
                                config.memory_reference.iterations,
                                config.run_options);
  if (!memory.ok()) return memory.status();
  costs.memory_calibration = memory->training_machine_minutes;

  // Stage 4 — execution time models, one per schedule.
  auto time_results = BuildTimeModels(
      factory, *schedules, *sizes, memory->memory_factor, config.machine_type,
      config.time_grid, config.run_options);
  if (!time_results.ok()) return time_results.status();
  std::vector<math::LinearModel> time_models;
  for (TimeModelResult& tm : *time_results) {
    costs.time_models += tm.training_machine_minutes;
    time_models.push_back(std::move(tm.model));
  }

  TrainedJuggler trained(app_name, std::move(schedules).value(),
                         std::move(sizes).value(), std::move(memory).value(),
                         std::move(time_models));
  return TrainingResult{std::move(trained), costs, std::move(metrics).value()};
}

}  // namespace juggler::core
