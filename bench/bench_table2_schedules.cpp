// Table 2 — Juggler's SCHEDULES and the HiBench default schedules, in the
// paper's p(i)/u(i) notation. Dataset ids are this implementation's; the
// mapping to the paper's ids is noted per application.

#include <iostream>

#include "bench/bench_common.h"
#include "core/dataset_metrics.h"
#include "core/hotspot.h"

using namespace juggler;        // NOLINT
using namespace juggler::bench; // NOLINT

int main() {
  std::printf("=== Table 2: Juggler's SCHEDULES & default schedules ===\n\n");

  TablePrinter table({"Application", "ID", "Schedule", "Cached datasets"});
  const std::map<std::string, std::string> paper = {
      {"lir", "1: p(1) | 2: p(1) p(3) | HiBench: -"},
      {"lor", "1: p(2) | 3: p(1) p(2) u(2) p(11) | HiBench: p(2) p(11)"},
      {"pca", "3: p(1) u(1) p(2) u(2) p(13) | HiBench: p(2)"},
      {"rfc", "1: p(11) | 2: p(1) p(12) | 3: p(1) p(5) u(5) p(12) | HiBench: p(12)"},
      {"svm", "1: p(2) | 2: p(1) p(6) | HiBench: p(2)"}};

  for (const auto& w : workloads::AllWorkloads()) {
    minispark::RunOptions o = ActualRunOptions();
    o.instrument = true;
    minispark::Engine engine(o);
    const auto sample = w.make(minispark::AppParams{2000, 500, 3});
    auto run = engine.RunDefault(sample, minispark::TrainingNode());
    if (!run.ok()) return 1;
    const core::MergedDag dag = core::BuildMergedDag(*run->profile);
    auto metrics = core::DeriveDatasetMetrics(dag, *run->profile);
    if (!metrics.ok()) return 1;
    auto schedules = core::DetectHotspots(dag, *metrics);
    if (!schedules.ok()) return 1;

    std::string measured;
    for (const auto& s : *schedules) {
      std::string names;
      for (auto d : s.datasets) {
        names += (names.empty() ? "" : ", ") + sample.dataset(d).name;
      }
      table.AddRow({w.name, std::to_string(s.id), s.plan.ToString(), names});
      measured += std::to_string(s.id) + ": " + s.plan.ToString() + " | ";
    }
    std::string default_names;
    for (auto d : sample.default_plan.PersistedDatasets()) {
      default_names +=
          (default_names.empty() ? "" : ", ") + sample.dataset(d).name;
    }
    table.AddRow({w.name, "HiBench", sample.default_plan.ToString(),
                  default_names});
    measured += "HiBench: " + sample.default_plan.ToString();
    PaperVsMeasured(w.name, paper.at(w.name), measured);
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf(
      "\nNote: dataset ids are implementation-local; the paper's p(2)/p(11)\n"
      "etc. map onto this implementation's labeled-points / std-instances /\n"
      "bagged-points datasets as shown in the 'Cached datasets' column.\n");
  return 0;
}
