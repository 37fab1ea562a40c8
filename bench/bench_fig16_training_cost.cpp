// Figure 16 & Table 5 — Training cost of Juggler's stages, the per-run cost
// savings vs HiBench, and the number of actual runs needed to amortize the
// offline training (the paper: 57.8 % average savings, 4 runs to amortize
// the optimization stages, 43 for prediction).
//
// Also the offline entry of the perf-trajectory series: wall-clock fit time
// per workload is persisted to BENCH_fit.json (one flat JSON object, the
// shape BENCH_sim.json shares) so CI tracks training cost across commits,
// with in-binary acceptance floors on the replicated savings. Next to the
// one-shot fit time it records the minimum and median of repeated timings
// that can resolve a small change: the five-app training at the serving
// benchmark's (perfbench) config, and stage 2 (CalibrateSizes) alone.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench/bench_common.h"
#include "core/parameter_calibration.h"

using namespace juggler;        // NOLINT
using namespace juggler::bench; // NOLINT

namespace {

constexpr int kRepetitions = 20;

/// Minimum and median wall time of `kRepetitions` calls of `pass`, in ms.
struct RepeatedMs {
  double min = 0.0;
  double median = 0.0;
};

RepeatedMs TimeRepeated(const std::function<void()>& pass) {
  std::vector<double> ms;
  for (int i = 0; i < kRepetitions; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pass();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return {*std::min_element(ms.begin(), ms.end()), Median(ms)};
}

/// The training config the serving benchmark (perfbench `TrainModels`)
/// uses: time grids at 0.4/0.7/1.0 x the paper params, no task noise and no
/// stragglers.
core::JugglerConfig ServingTrainingConfig(const workloads::Workload& w) {
  core::JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
  config.run_options.noise_sigma = 0.0;
  config.run_options.straggler_prob = 0.0;
  return config;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "FAIL: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path output_json =
      argc > 1 ? std::filesystem::path(argv[1])
               : std::filesystem::path("BENCH_fit.json");
  std::printf("=== Figure 16 / Table 5: training cost and general gains ===\n\n");

  TablePrinter fig16({"Application", "Hotspot", "Param calib.", "Memory calib.",
                      "Time models"});
  TablePrinter t5({"", "LIR", "LOR", "PCA", "RFC", "SVM"});
  std::vector<std::string> default_row = {"Default cost (machine min)"};
  std::vector<std::string> juggler_row = {"Juggler cost (machine min)"};
  std::vector<std::string> savings_row = {"Cost savings per run"};
  std::vector<std::string> opt_cost_row = {"Optimization training cost"};
  std::vector<std::string> opt_runs_row = {"#Runs to gain (optimization)"};
  std::vector<std::string> pred_cost_row = {"Prediction training cost"};
  std::vector<std::string> pred_runs_row = {"#Runs to gain (total)"};
  double savings_sum = 0.0;
  double fit_wall_s = 0.0;
  double fit_wall_max_s = 0.0;
  double simulated_cost_sum = 0.0;
  int workload_count = 0;

  for (const auto& w : workloads::AllWorkloads()) {
    const auto fit_start = std::chrono::steady_clock::now();
    const auto training = TrainOrDie(w);
    const double fit_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fit_start)
            .count();
    fit_wall_s += fit_s;
    fit_wall_max_s = std::max(fit_wall_max_s, fit_s);
    simulated_cost_sum += training.costs.Total();
    ++workload_count;
    const auto& costs = training.costs;
    fig16.AddRow({w.name,
                  TablePrinter::Percent(costs.hotspot / costs.Total(), 1),
                  TablePrinter::Percent(costs.parameter_calibration /
                                        costs.Total(), 1),
                  TablePrinter::Percent(costs.memory_calibration /
                                        costs.Total(), 1),
                  TablePrinter::Percent(costs.time_models / costs.Total(), 1)});

    // Default: average cost of the HiBench schedule across all cluster
    // configurations (the end user has no sizing guidance).
    const auto default_sweep =
        SweepMachines(w, w.paper_params, w.make(w.paper_params).default_plan);
    double default_avg = 0.0;
    for (const auto& p : default_sweep) default_avg += p.cost_machine_min;
    default_avg /= default_sweep.size();

    // Juggler: average cost of its schedules at their recommended
    // configurations.
    auto recs = training.trained.RecommendAll(w.paper_params,
                                              minispark::PaperCluster(1));
    if (!recs.ok()) return 1;
    double juggler_avg = 0.0;
    for (const auto& rec : *recs) {
      minispark::Engine engine(ActualRunOptions(5));
      auto r = engine.Run(w.make(w.paper_params),
                          minispark::PaperCluster(rec.machines), rec.plan);
      if (!r.ok()) return 1;
      juggler_avg += r->CostMachineMinutes();
    }
    juggler_avg /= static_cast<double>(recs->size());

    const double savings_per_run = default_avg - juggler_avg;
    const double savings_pct = savings_per_run / default_avg;
    savings_sum += savings_pct;
    const auto runs_to_amortize = [&](double training_cost) {
      if (savings_per_run <= 0) return std::string("-");
      return std::to_string(
          static_cast<int>(std::ceil(training_cost / savings_per_run)));
    };

    default_row.push_back(TablePrinter::Num(default_avg));
    juggler_row.push_back(TablePrinter::Num(juggler_avg));
    savings_row.push_back(TablePrinter::Percent(savings_pct, 0));
    opt_cost_row.push_back(TablePrinter::Num(costs.Optimization()));
    opt_runs_row.push_back(runs_to_amortize(costs.Optimization()));
    pred_cost_row.push_back(TablePrinter::Num(costs.Total()));
    pred_runs_row.push_back(runs_to_amortize(costs.Total()));
  }

  std::printf("--- Figure 16: share of training cost per stage ---\n");
  fig16.Print(std::cout);

  std::printf("\n--- Table 5: training cost efficiency and general gains ---\n");
  t5.AddRow(default_row);
  t5.AddRow(juggler_row);
  t5.AddRow(savings_row);
  t5.AddRow(opt_cost_row);
  t5.AddRow(opt_runs_row);
  t5.AddRow(pred_cost_row);
  t5.AddRow(pred_runs_row);
  t5.Print(std::cout);

  std::printf("\n");
  PaperVsMeasured("average cost savings per run", "57.8 %",
                  TablePrinter::Percent(savings_sum / 5));
  PaperVsMeasured("paper's #runs to amortize (optimization, avg)", "4",
                  "see table");
  std::printf("\nNote: most of the training cost comes from building the\n"
              "execution time models, as in the paper (Figure 16).\n");

  const double savings_avg = savings_sum / workload_count;
  std::printf("\nfit wall clock: %.3f s total, %.3f s slowest workload\n",
              fit_wall_s, fit_wall_max_s);

  // The offline ledger: the five-app training at the serving benchmark's
  // config, then its stage 2 alone on each app's stage-1 schedules.
  std::vector<std::vector<core::Schedule>> schedules;
  const RepeatedMs train_ms = TimeRepeated([&schedules] {
    schedules.clear();
    for (const auto& w : workloads::AllWorkloads()) {
      auto training = core::TrainJuggler(w.name, w.make,
                                         ServingTrainingConfig(w));
      if (!training.ok()) Die("training " + w.name, training.status());
      schedules.push_back(training->trained.schedules());
    }
  });
  const RepeatedMs sizes_ms = TimeRepeated([&schedules] {
    size_t i = 0;
    for (const auto& w : workloads::AllWorkloads()) {
      const core::JugglerConfig config = ServingTrainingConfig(w);
      auto sizes = core::CalibrateSizes(w.make, schedules[i++],
                                        config.size_grid, config.training_node,
                                        config.run_options);
      if (!sizes.ok()) Die("calibrating " + w.name, sizes.status());
    }
  });
  std::printf("five-app training (serving config), %d runs: min %.2f ms, "
              "median %.2f ms\n",
              kRepetitions, train_ms.min, train_ms.median);
  std::printf("stage 2 (CalibrateSizes, five apps), %d runs: min %.3f ms, "
              "median %.3f ms\n",
              kRepetitions, sizes_ms.min, sizes_ms.median);

  // Persisted perf trajectory: one flat JSON document per run.
  {
    std::ofstream out(output_json);
    char json[640];
    std::snprintf(json, sizeof(json),
                  "{\"bench\":\"fit\",\"workloads\":%d,\"fit_wall_s\":%.3f,"
                  "\"fit_wall_max_s\":%.3f,\"fit_wall_avg_s\":%.3f,"
                  "\"simulated_cost_machine_min\":%.2f,"
                  "\"savings_avg\":%.4f,\"repetitions\":%d,"
                  "\"train_min_ms\":%.3f,\"train_median_ms\":%.3f,"
                  "\"calibrate_sizes_min_ms\":%.4f,"
                  "\"calibrate_sizes_median_ms\":%.4f}\n",
                  workload_count, fit_wall_s, fit_wall_max_s,
                  fit_wall_s / workload_count, simulated_cost_sum,
                  savings_avg, kRepetitions, train_ms.min, train_ms.median,
                  sizes_ms.min, sizes_ms.median);
    out << json;
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", output_json.c_str());
      return 1;
    }
    std::printf("wrote %s\n", output_json.c_str());
  }

  // Acceptance floors. These are simulator results (deterministic seeds),
  // so they hold under sanitizers too — only wall-clock would not.
  if (workload_count != 5) {
    std::fprintf(stderr, "FAIL: expected 5 workloads, trained %d\n",
                 workload_count);
    return 1;
  }
  if (savings_avg < 0.2) {
    std::fprintf(stderr,
                 "FAIL: average savings %.1f %% < 20 %% floor (paper: 57.8 "
                 "%%)\n",
                 100.0 * savings_avg);
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
