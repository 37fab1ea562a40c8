// juggler_cli: command-line front end covering the full deployment cycle.
//
//   juggler_cli train <workload> <model-file>
//       Runs the four offline stages and saves the trained model.
//   juggler_cli recommend <model-file> <examples> <features> [machine-GB]
//       Loads a model and prints the §5.5 recommendations — no experiments.
//   juggler_cli simulate <workload> <machines> [plan]
//       One actual (simulated) run with an explicit p(i)/u(i) plan, e.g.
//       `juggler_cli simulate svm 7 "p(2)"`; omit the plan for the
//       developer default.

#include <fstream>
#include <iostream>
#include <string>

#include "common/parse.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  juggler_cli train <workload> <model-file>\n"
      "  juggler_cli recommend <model-file> <examples> <features> [machine-GB]\n"
      "  juggler_cli simulate <workload> <machines> [plan]\n"
      "workloads: lir lor pca rfc svm\n";
  return 2;
}

int Train(const std::string& name, const std::string& path) {
  auto workload = workloads::GetWorkload(name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  const core::JugglerConfig config =
      core::PaperTrainingConfig(workload->paper_params);

  std::cout << "training '" << name << "' (four offline stages)...\n";
  auto training = core::TrainJuggler(name, workload->make, config);
  if (!training.ok()) {
    std::cerr << training.status().ToString() << "\n";
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  if (auto st = core::SaveTrainedJuggler(training->trained, out); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::printf("saved %s: %zu schedule(s), memory factor %.3f, "
              "training cost %.1f machine-min\n",
              path.c_str(), training->trained.schedules().size(),
              training->trained.memory().memory_factor,
              training->costs.Total());
  return 0;
}

int Recommend(const std::string& path, double examples, double features,
              double machine_gb) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  auto trained = core::LoadTrainedJuggler(in);
  if (!trained.ok()) {
    std::cerr << trained.status().ToString() << "\n";
    return 1;
  }
  minispark::ClusterConfig machine = minispark::PaperCluster(1);
  machine.executor_memory_bytes = GiB(machine_gb);

  auto recs = trained->Recommend(
      minispark::AppParams{examples, features, 1}, machine);
  if (!recs.ok()) {
    std::cerr << recs.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s @ examples=%g features=%g on %s machines:\n",
              trained->app_name().c_str(), examples, features,
              FormatBytes(machine.executor_memory_bytes).c_str());
  TablePrinter table({"Schedule", "Plan", "Cached size", "#Machines",
                      "Pred. time", "Pred. cost (machine min)"});
  for (const auto& r : *recs) {
    table.AddRow({"#" + std::to_string(r.schedule_id), r.plan.ToString(),
                  FormatBytes(r.predicted_bytes), std::to_string(r.machines),
                  FormatTime(r.predicted_time_ms),
                  TablePrinter::Num(r.predicted_cost_machine_min)});
  }
  table.Print(std::cout);
  return 0;
}

int Simulate(const std::string& name, int machines, const std::string& plan_text) {
  auto workload = workloads::GetWorkload(name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  const auto app = workload->make(workload->paper_params);
  minispark::CachePlan plan = app.default_plan;
  if (!plan_text.empty()) {
    auto parsed = minispark::CachePlan::Parse(plan_text);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    plan = std::move(parsed).value();
  }
  minispark::Engine engine{minispark::RunOptions{}};
  auto r = engine.Run(app, minispark::PaperCluster(machines), plan);
  if (!r.ok()) {
    std::cerr << r.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s with %s on %d machines: %s, %.1f machine-min\n",
              name.c_str(), plan.ToString().c_str(), machines,
              FormatTime(r->duration_ms).c_str(), r->CostMachineMinutes());
  std::printf("cache: %lld hits, %lld recomputes, %lld evictions, "
              "peak exec %s\n",
              static_cast<long long>(r->cache_hits),
              static_cast<long long>(r->cache_recomputes),
              static_cast<long long>(r->blocks_evicted),
              FormatBytes(r->peak_execution_bytes).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "train" && argc == 4) return Train(argv[2], argv[3]);
  if (command == "recommend" && (argc == 5 || argc == 6)) {
    double examples = 0.0;
    double features = 0.0;
    double machine_gb = 12.0;
    if (!ParseFiniteDouble(argv[3], &examples) ||
        !ParseFiniteDouble(argv[4], &features) ||
        (argc == 6 && !ParseFiniteDouble(argv[5], &machine_gb))) {
      return Usage();
    }
    return Recommend(argv[2], examples, features, machine_gb);
  }
  if (command == "simulate" && (argc == 4 || argc == 5)) {
    int machines = 0;
    if (!ParseUnsigned(argv[3], &machines)) return Usage();
    return Simulate(argv[2], machines, argc == 5 ? argv[4] : "");
  }
  return Usage();
}
