// whatif_prediction: the §5.5 end-user experience. Trains Juggler once for a
// workload, then explores "what if I ran with these parameters?" questions
// across a parameter sweep — predicted time, cost and the recommended
// schedule per point, each validated against one actual (simulated) run.
//
// Usage: ./build/examples/whatif_prediction [workload] (default: lor)

#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "math/stats.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "lor";
  auto workload = workloads::GetWorkload(name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  const minispark::AppParams base = workload->paper_params;

  const core::JugglerConfig config = core::PaperTrainingConfig(base);

  std::cout << "Training Juggler for '" << name << "' ...\n";
  auto training = core::TrainJuggler(name, workload->make, config);
  if (!training.ok()) {
    std::cerr << training.status().ToString() << "\n";
    return 1;
  }
  const auto& juggler = training->trained;

  // What-if sweep over the user parameters (within the trained region).
  TablePrinter table({"Examples", "Features", "Best schedule", "#Machines",
                      "Pred. time", "Pred. cost", "Actual time", "Accuracy"});
  double accuracy_sum = 0.0;
  int cases = 0;
  for (double es : {0.5, 0.75, 1.0}) {
    for (double fs : {0.5, 1.0}) {
      minispark::AppParams params = base;
      params.examples *= es;
      params.features *= fs;

      auto recs = juggler.Recommend(params, minispark::PaperCluster(1));
      if (!recs.ok() || recs->empty()) {
        std::cerr << "no recommendation\n";
        return 1;
      }
      // Pick the cheapest offered schedule.
      const core::Recommendation* best = &recs->front();
      for (const auto& r : *recs) {
        if (r.predicted_cost_machine_min < best->predicted_cost_machine_min) {
          best = &r;
        }
      }

      minispark::Engine engine{minispark::RunOptions{}};
      auto actual = engine.Run(workload->make(params),
                               minispark::PaperCluster(best->machines),
                               best->plan);
      if (!actual.ok()) {
        std::cerr << actual.status().ToString() << "\n";
        return 1;
      }
      const double acc = math::PredictionAccuracy(best->predicted_time_ms,
                                                  actual->duration_ms);
      accuracy_sum += acc;
      ++cases;
      table.AddRow({TablePrinter::Num(params.examples, 0),
                    TablePrinter::Num(params.features, 0),
                    "#" + std::to_string(best->schedule_id),
                    std::to_string(best->machines),
                    FormatTime(best->predicted_time_ms),
                    TablePrinter::Num(best->predicted_cost_machine_min),
                    FormatTime(actual->duration_ms),
                    TablePrinter::Percent(acc)});
    }
  }
  table.Print(std::cout);
  std::printf("\nMean prediction accuracy across the sweep: %s\n",
              TablePrinter::Percent(accuracy_sum / cases).c_str());
  std::printf("All predictions came from the offline models — zero new\n"
              "experiments were run to fill this table (only the validation\n"
              "runs in the 'Actual time' column).\n");
  return 0;
}
