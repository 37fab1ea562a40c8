// cluster_sizing: how the optimization models transfer across machine types
// (§6.2). Trains Juggler once, then asks for the recommended cluster
// configuration of the first schedule across several cloud-instance-like
// machine types and input scales — without any new experiments.
//
// Usage: ./build/examples/cluster_sizing [workload] (default: svm)

#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

namespace {

struct MachineType {
  const char* name;
  double memory_bytes;
  int cores;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "svm";
  auto workload = workloads::GetWorkload(name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  const core::JugglerConfig config =
      core::PaperTrainingConfig(workload->paper_params);

  std::cout << "Training Juggler for '" << name << "' ...\n";
  auto training = core::TrainJuggler(name, workload->make, config);
  if (!training.ok()) {
    std::cerr << training.status().ToString() << "\n";
    return 1;
  }
  const auto& juggler = training->trained;
  std::printf("Memory factor: %.3f (independent of the machine type)\n\n",
              juggler.memory().memory_factor);

  // Cloud-instance-like machine types. Only the memory per machine matters
  // for the cluster configuration (§5.3's discussion).
  const MachineType kTypes[] = {
      {"small  (8 GB)", GiB(8), 4},
      {"paper  (12 GB)", GiB(12), 4},
      {"large  (24 GB)", GiB(24), 8},
      {"xlarge (48 GB)", GiB(48), 16},
  };

  TablePrinter table({"Machine type", "M per machine", "Cache per machine",
                      "Scale 0.5x", "Scale 1x", "Scale 2x"});
  for (const MachineType& type : kTypes) {
    minispark::ClusterConfig machine = minispark::PaperCluster(1);
    machine.executor_memory_bytes = type.memory_bytes;
    machine.cores_per_machine = type.cores;

    std::vector<std::string> row = {
        type.name, FormatBytes(machine.UnifiedMemoryPerMachine()),
        FormatBytes(machine.UnifiedMemoryPerMachine() *
                    juggler.memory().memory_factor)};
    for (double scale : {0.5, 1.0, 2.0}) {
      minispark::AppParams params = workload->paper_params;
      params.examples *= scale;
      auto recs = juggler.RecommendAll(params, machine);
      if (!recs.ok()) {
        std::cerr << recs.status().ToString() << "\n";
        return 1;
      }
      row.push_back(std::to_string(recs->front().machines) + " machines");
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::printf(
      "\nThe recommendation is #machines = ceil(schedule size / (M x memory\n"
      "factor)) — Equations 5-6. Bigger machines or smaller inputs need\n"
      "fewer machines; no re-training was required for any row.\n");
  return 0;
}
