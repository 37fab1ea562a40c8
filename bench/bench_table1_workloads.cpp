// Table 1 — Details of evaluated applications: parameters, input size,
// dataset counts, intermediate datasets, and number of schedules Juggler
// detects.

#include <iostream>

#include "bench/bench_common.h"
#include "core/dataset_metrics.h"
#include "core/hotspot.h"

using namespace juggler;        // NOLINT
using namespace juggler::bench; // NOLINT

int main() {
  std::printf("=== Table 1: Details of evaluated applications ===\n\n");

  TablePrinter table({"Application", "Examples", "Features", "Iterations",
                      "Input data", "Datasets", "Intermediate datasets",
                      "Schedules"});
  struct PaperRow {
    const char* input;
    int datasets;
    int intermediates;
    int schedules;
  };
  const std::map<std::string, PaperRow> paper = {
      {"lir", {"35.8 GB", 111, 16, 2}}, {"lor", {"26.1 GB", 210, 4, 2}},
      {"pca", {"229.2 MB", 1833, 5, 1}}, {"rfc", {"29.8 GB", 26, 8, 3}},
      {"svm", {"23.8 GB", 524, 9, 2}}};

  for (const auto& w : workloads::AllWorkloads()) {
    const auto app = w.make(w.paper_params);
    const auto counts = minispark::ComputationCounts(app);
    int intermediates = 0;
    for (long long n : counts) {
      if (n > 1) ++intermediates;
    }

    // Schedule count from hotspot detection on the sample run.
    minispark::RunOptions o = ActualRunOptions();
    o.instrument = true;
    minispark::Engine engine(o);
    auto run = engine.RunDefault(w.make(minispark::AppParams{2000, 500, 3}),
                                 minispark::TrainingNode());
    if (!run.ok()) return 1;
    const core::MergedDag dag = core::BuildMergedDag(*run->profile);
    auto metrics = core::DeriveDatasetMetrics(dag, *run->profile);
    if (!metrics.ok()) return 1;
    auto schedules = core::DetectHotspots(dag, *metrics);
    if (!schedules.ok()) return 1;

    table.AddRow({w.name, TablePrinter::Num(w.paper_params.examples, 0),
                  TablePrinter::Num(w.paper_params.features, 0),
                  std::to_string(w.paper_params.iterations),
                  FormatBytes(app.dataset(0).bytes),
                  std::to_string(app.num_datasets()),
                  std::to_string(intermediates),
                  std::to_string(schedules->size())});

    const PaperRow& p = paper.at(w.name);
    PaperVsMeasured(
        w.name + " (input | datasets | intermediates | schedules)",
        std::string(p.input) + " | " + std::to_string(p.datasets) + " | " +
            std::to_string(p.intermediates) + " | " +
            std::to_string(p.schedules),
        FormatBytes(app.dataset(0).bytes) + " | " +
            std::to_string(app.num_datasets()) + " | " +
            std::to_string(intermediates) + " | " +
            std::to_string(schedules->size()));
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
