// cache_advisor: the lower-level API tour. Runs one instrumented sample run
// of an application, derives the §3 dataset metrics (computations, sizes,
// operator-level execution times), and walks Algorithm 1's reasoning —
// benefits, benefit-cost ratios, and the resulting SCHEDULES — the way the
// paper's §5.1 example does for Logistic Regression.
//
// Usage: ./build/examples/cache_advisor [workload] (default: lor)

#include <algorithm>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/dataset_metrics.h"
#include "core/hotspot.h"
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

  // One sample run on the small training node, instrumented (Spark_i role):
  // a tiny data sample and few iterations keep the overhead minimal (§5.1).
  const minispark::AppParams sample{2000, 500, 3};
  minispark::RunOptions options;
  options.instrument = true;
  minispark::Engine engine(options);
  const auto app = workload->make(sample);
  auto run = engine.RunDefault(app, minispark::TrainingNode());
  if (!run.ok()) {
    std::cerr << "sample run failed: " << run.status().ToString() << "\n";
    return 1;
  }
  std::printf("Sample run of '%s' (%g x %g, %d iterations): %s, %zu jobs,\n"
              "%zu transformation records collected.\n\n",
              name.c_str(), sample.examples, sample.features, sample.iterations,
              FormatTime(run->duration_ms).c_str(), run->profile->jobs().size(),
              run->profile->transforms().size());

  // §3 dataset metrics, reconstructed purely from the instrumentation.
  const core::MergedDag dag = core::BuildMergedDag(*run->profile);
  auto metrics = core::DeriveDatasetMetrics(dag, *run->profile);
  if (!metrics.ok()) {
    std::cerr << metrics.status().ToString() << "\n";
    return 1;
  }

  std::printf("Intermediate datasets (computed more than once):\n");
  TablePrinter table({"Dataset", "#Computations", "Execution time", "Size",
                      "Benefit", "BCR (ms/MB)"});
  std::vector<double> et(static_cast<size_t>(dag.num_datasets()), 0.0);
  for (const auto& m : *metrics) et[static_cast<size_t>(m.id)] = m.compute_time_ms;
  for (const auto& m : *metrics) {
    if (m.computations <= 1) continue;
    const double benefit =
        core::CachingBenefitMs(dag, et, {}, m.computations, m.id);
    table.AddRow({m.name, std::to_string(m.computations),
                  FormatTime(m.compute_time_ms), FormatBytes(m.size_bytes),
                  FormatTime(benefit),
                  TablePrinter::Num(benefit / ToMiB(m.size_bytes), 2)});
  }
  table.Print(std::cout);

  // Algorithm 1.
  auto schedules = core::DetectHotspots(dag, *metrics);
  if (!schedules.ok()) {
    std::cerr << schedules.status().ToString() << "\n";
    return 1;
  }
  std::printf("\nDetected SCHEDULES (incremental; later = more caching):\n");
  for (const auto& s : *schedules) {
    std::printf("  #%d  %-36s memory %-10s benefit %s\n", s.id,
                s.plan.ToString().c_str(), FormatBytes(s.memory_bytes).c_str(),
                FormatTime(s.benefit_ms).c_str());
  }

  // Show what the ablations (the related components' blind spots) would do.
  core::HotspotOptions no_reeval;
  no_reeval.reevaluate = false;
  auto nagel_like = core::DetectHotspots(dag, *metrics, no_reeval);
  if (nagel_like.ok() && !nagel_like->empty() &&
      nagel_like->back().plan.ToString() != schedules->back().plan.ToString()) {
    std::printf("\nWithout re-evaluation (Nagel-style), the last schedule would"
                " be:\n  %s (memory %s)\n",
                nagel_like->back().plan.ToString().c_str(),
                FormatBytes(nagel_like->back().memory_bytes).c_str());
  }
  std::printf("\nCompare with the developer (HiBench) default: %s\n",
              app.default_plan.ToString().c_str());
  return 0;
}
