// Engine throughput — how many simulated tasks per wall-clock second the
// minispark engine executes. Everything upstream (training grids, sweeps,
// the serving tier's evaluations) is bounded by this number, so it gets its
// own perf-trajectory entry: results are persisted to BENCH_sim.json (one
// flat JSON object, the shape BENCH_fit.json shares), with an in-binary
// acceptance floor.
//
//   bench_sim_throughput [rounds] [out-json]
//
// Each round runs every workload's default plan at its paper parameters
// twice: instrumented, so the per-run task counts come from the profile the
// engine actually collected rather than a side calculation, and
// uninstrumented (no profile), the path Juggler's training runs take. The
// apps are built once, outside the clock, so both rates time the engine
// alone. Every round is timed on its own, and the bench reports the minimum
// and the median round, which resolve a small change where one sum over
// the rounds would carry every slow round in it. The uninstrumented rate
// divides the instrumented round's task count by its own time: both passes
// run the same apps with the same seeds, and a run's tasks do not depend on
// instrumentation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bench/bench_common.h"
#include "common/parse.h"

using namespace juggler;        // NOLINT
using namespace juggler::bench; // NOLINT

int main(int argc, char** argv) {
  int rounds = 5;
  const std::filesystem::path output_json =
      argc > 2 ? std::filesystem::path(argv[2])
               : std::filesystem::path("BENCH_sim.json");
  if (argc > 3 || (argc > 1 && !ParseUnsigned(argv[1], &rounds)) ||
      rounds <= 0) {
    std::fprintf(stderr, "usage: %s [rounds] [out-json]\n", argv[0]);
    return 2;
  }

  std::printf("== Simulation engine throughput ==\n");
  std::vector<minispark::Application> apps;
  for (const auto& w : workloads::AllWorkloads()) {
    apps.push_back(w.make(w.paper_params));
  }
  const minispark::ClusterConfig cluster = minispark::PaperCluster(4);

  minispark::RunOptions options = ActualRunOptions();
  options.instrument = true;

  // Warmup: one untimed pass (first-touch allocations, page faults).
  for (const auto& app : apps) {
    auto r = minispark::Engine(options).Run(app, cluster, app.default_plan);
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: warmup run failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
  }

  // One timed pass: every app `rounds` times, round r with seed 42 + r.
  // Returns each round's wall ms; `on_run` sees each run's result.
  const auto timed_pass = [&](bool instrument, auto&& on_run) {
    options.instrument = instrument;
    std::vector<double> round_ms;
    for (int round = 0; round < rounds; ++round) {
      options.seed = 42 + static_cast<uint64_t>(round);
      const auto start = std::chrono::steady_clock::now();
      for (const auto& app : apps) {
        auto r = minispark::Engine(options).Run(app, cluster, app.default_plan);
        if (!r.ok() || (instrument && r->profile == nullptr)) {
          std::fprintf(stderr, "FAIL: run of %s failed\n", app.name.c_str());
          std::exit(1);
        }
        on_run(*r);
      }
      round_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
    return round_ms;
  };

  int64_t total_tasks = 0;
  int64_t total_runs = 0;
  double simulated_ms = 0.0;
  const std::vector<double> round_ms =
      timed_pass(true, [&](const minispark::RunResult& r) {
        total_tasks += static_cast<int64_t>(r.profile->tasks().size());
        simulated_ms += r.duration_ms;
        ++total_runs;
      });
  const std::vector<double> plain_round_ms =
      timed_pass(false, [](const minispark::RunResult&) {});

  const double min_ms = *std::min_element(round_ms.begin(), round_ms.end());
  const double median_ms = Median(round_ms);
  const double plain_min_ms =
      *std::min_element(plain_round_ms.begin(), plain_round_ms.end());
  const double plain_median_ms = Median(plain_round_ms);
  // Rates at the median round. Every round runs the same apps, so the same
  // tasks; only the seeds differ.
  const double tasks_per_round = static_cast<double>(total_tasks) / rounds;
  const double tasks_per_s = tasks_per_round * 1000.0 / median_ms;
  const double plain_tasks_per_s = tasks_per_round * 1000.0 / plain_median_ms;
  const double runs_per_s =
      static_cast<double>(total_runs) / rounds * 1000.0 / median_ms;
  // How much faster than real time the simulation runs: simulated
  // machine-time executed per wall second.
  const double time_compression = simulated_ms / rounds / median_ms;

  std::printf("%d rounds: %lld runs, %lld simulated tasks\n", rounds,
              static_cast<long long>(total_runs),
              static_cast<long long>(total_tasks));
  std::printf("instrumented round:   min %8.3f ms, median %8.3f ms\n", min_ms,
              median_ms);
  std::printf("uninstrumented round: min %8.3f ms, median %8.3f ms\n",
              plain_min_ms, plain_median_ms);
  std::printf("simulated tasks/s:  %10.0f (median round)\n", tasks_per_s);
  std::printf("uninstrumented:     %10.0f tasks/s (median round)\n",
              plain_tasks_per_s);
  std::printf("runs/s:             %10.1f\n", runs_per_s);
  std::printf("time compression:   %10.0fx real time\n", time_compression);

  // Persisted perf trajectory: one flat JSON document per run.
  {
    std::ofstream out(output_json);
    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"sim\",\"rounds\":%d,\"runs\":%lld,\"tasks\":%lld,"
        "\"round_min_ms\":%.3f,\"round_median_ms\":%.3f,"
        "\"uninstrumented_round_min_ms\":%.3f,"
        "\"uninstrumented_round_median_ms\":%.3f,\"tasks_per_s\":%.0f,"
        "\"uninstrumented_tasks_per_s\":%.0f,"
        "\"runs_per_s\":%.1f,\"time_compression\":%.0f}\n",
        rounds, static_cast<long long>(total_runs),
        static_cast<long long>(total_tasks), min_ms, median_ms, plain_min_ms,
        plain_median_ms, tasks_per_s, plain_tasks_per_s, runs_per_s,
        time_compression);
    out << json;
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", output_json.c_str());
      return 1;
    }
    std::printf("wrote %s\n", output_json.c_str());
  }

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  // Sanitizer builds exist to catch bugs, not to measure time.
  std::printf("(sanitizer build: tasks/s acceptance check skipped)\n");
#else
  // The floor reads the instrumented rate at the median round.
  if (tasks_per_s < 100000.0) {
    std::fprintf(stderr,
                 "FAIL: median round %.0f tasks/s < 100000 acceptance floor\n",
                 tasks_per_s);
    return 1;
  }
#endif
  std::printf("\nOK\n");
  return 0;
}
