#ifndef JUGGLER_BENCH_BENCH_COMMON_H_
#define JUGGLER_BENCH_BENCH_COMMON_H_

// Shared helpers for the evaluation harnesses. Each bench binary regenerates
// one table or figure of the paper: same rows/series, with a
// "paper vs measured" note wherever the paper states a number. Absolute
// values come from the simulator, so only shapes/ratios are expected to
// match.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

namespace juggler::bench {

/// All evaluation runs use the paper's 12-node ceiling.
inline constexpr int kMaxMachines = 12;

/// Deterministic-but-noisy run options for "actual runs": small jitter plus
/// rare stragglers, seeded for reproducibility.
inline minispark::RunOptions ActualRunOptions(uint64_t seed = 42) {
  minispark::RunOptions o;
  o.seed = seed;
  o.noise_sigma = 0.02;
  o.straggler_prob = 0.01;
  return o;
}

/// The offline-training configuration used by every bench, mirroring §7.1:
/// one sample run + 9 size experiments on the small training node, one
/// memory-calibration run, and 9 time experiments per schedule at
/// 0.4x-1x of the paper's parameters.
inline core::JugglerConfig PaperTrainingConfig(const workloads::Workload& w) {
  core::JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
  config.run_options = ActualRunOptions();
  return config;
}

/// One point of a machine sweep.
struct SweepPoint {
  int machines = 0;
  double time_ms = 0.0;
  double cost_machine_min = 0.0;
};

/// Runs `plan` on 1..kMaxMachines machines (paper Figure 9 methodology),
/// machine count m at seed 42 + m.
inline std::vector<SweepPoint> SweepMachines(
    const workloads::Workload& w, const minispark::AppParams& params,
    const minispark::CachePlan& plan) {
  std::vector<SweepPoint> out;
  for (int m = 1; m <= kMaxMachines; ++m) {
    minispark::Engine engine(ActualRunOptions(42 + static_cast<uint64_t>(m)));
    auto r = engine.Run(w.make(params), minispark::PaperCluster(m), plan);
    if (!r.ok()) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(SweepPoint{m, r->duration_ms, r->CostMachineMinutes()});
  }
  return out;
}

inline const SweepPoint& CheapestPoint(const std::vector<SweepPoint>& sweep) {
  return *std::min_element(sweep.begin(), sweep.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.cost_machine_min < b.cost_machine_min;
                           });
}

/// Trains Juggler for a workload, exiting on failure (benches are batch
/// programs; any failure is fatal and loud).
inline core::TrainingResult TrainOrDie(const workloads::Workload& w) {
  auto training = core::TrainJuggler(w.name, w.make, PaperTrainingConfig(w));
  if (!training.ok()) {
    std::fprintf(stderr, "training %s failed: %s\n", w.name.c_str(),
                 training.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(training).value();
}

/// Prints the standard "paper vs measured" comparison line.
inline void PaperVsMeasured(const std::string& what, const std::string& paper,
                            const std::string& measured) {
  std::printf("  [paper-vs-measured] %s: paper %s | measured %s\n",
              what.c_str(), paper.c_str(), measured.c_str());
}

/// Median of repeated timings (the mean of the two middle values when the
/// count is even). `v` must not be empty.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2.0;
}

}  // namespace juggler::bench

#endif  // JUGGLER_BENCH_BENCH_COMMON_H_
