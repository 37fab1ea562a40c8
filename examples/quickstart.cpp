// Quickstart: train Juggler offline for one application, then ask it for
// schedule recommendations at user-selected parameters — the paper's §5.5
// end-to-end flow.
//
// Build & run:  ./build/examples/quickstart [workload] (default: svm)

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

using namespace juggler;                 // NOLINT
using minispark::AppParams;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "svm";
  auto workload = workloads::GetWorkload(name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  // Offline training: four stages, run once per application (§5).
  const core::JugglerConfig config =
      core::PaperTrainingConfig(workload->paper_params);

  std::cout << "Training Juggler for '" << name << "' ...\n";
  auto training = core::TrainJuggler(name, workload->make, config);
  if (!training.ok()) {
    std::cerr << "training failed: " << training.status().ToString() << "\n";
    return 1;
  }
  const core::TrainedJuggler& juggler = training->trained;

  std::cout << "\nDetected schedules:\n";
  for (const auto& schedule : juggler.schedules()) {
    std::cout << "  SCHEDULE #" << schedule.id << ": "
              << schedule.plan.ToString()
              << "  (memory " << FormatBytes(schedule.memory_bytes)
              << ", benefit " << FormatTime(schedule.benefit_ms) << ")\n";
  }
  std::printf("Memory factor: %.3f\n", juggler.memory().memory_factor);
  std::printf("Training cost: %.1f machine-min (optimization %.1f, prediction %.1f)\n",
              training->costs.Total(), training->costs.Optimization(),
              training->costs.Prediction());

  // Online: the end user picks parameters; Juggler answers instantly from
  // its models — no new experiments.
  const AppParams user = workload->paper_params;
  auto recs = juggler.Recommend(user, minispark::PaperCluster(1));
  if (!recs.ok()) {
    std::cerr << "recommendation failed: " << recs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\nRecommendations for examples=" << user.examples
            << " features=" << user.features
            << " iterations=" << user.iterations << ":\n";
  TablePrinter table({"Schedule", "Plan", "Cached size", "#Machines",
                      "Pred. time", "Pred. cost (machine min)"});
  for (const auto& r : *recs) {
    table.AddRow({"#" + std::to_string(r.schedule_id), r.plan.ToString(),
                  FormatBytes(r.predicted_bytes), std::to_string(r.machines),
                  FormatTime(r.predicted_time_ms),
                  TablePrinter::Num(r.predicted_cost_machine_min)});
  }
  table.Print(std::cout);

  // Validate one recommendation with an actual run.
  if (!recs->empty()) {
    const auto& r = recs->front();
    minispark::Engine engine(minispark::RunOptions{});
    auto run = engine.Run(workload->make(user),
                          minispark::PaperCluster(r.machines), r.plan);
    if (run.ok()) {
      std::printf("\nActual run of SCHEDULE #%d on %d machines: %s "
                  "(%.1f machine-min; predicted %.1f)\n",
                  r.schedule_id, r.machines, FormatTime(run->duration_ms).c_str(),
                  run->CostMachineMinutes(), r.predicted_cost_machine_min);
    }
  }
  return 0;
}
