#ifndef JUGGLER_MINISPARK_ENGINE_H_
#define JUGGLER_MINISPARK_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "minispark/application.h"
#include "minispark/cluster.h"
#include "minispark/faults.h"
#include "minispark/profiling.h"

namespace juggler::minispark {

/// \brief Knobs for one simulated run.
struct RunOptions {
  /// Collect Spark_i-style low-level runtime data into RunResult::profile.
  /// Slows every task by 3% (profiling transformations are lightweight but
  /// not free, §4).
  bool instrument = false;
  uint64_t seed = 42;
  /// Multiplicative lognormal jitter applied to each task (sigma). 0 makes
  /// runs fully deterministic.
  double noise_sigma = 0.02;
  /// Straggler injection: probability and slowdown factor per task.
  double straggler_prob = 0.01;
  double straggler_factor = 2.5;
  /// Deterministic fault schedule (task failures, executor loss, plan-driven
  /// stragglers + speculation). Default: no faults — the engine behaves
  /// exactly as it did before the recovery layer existed.
  FaultSpec faults;
};

/// \brief Per-dataset cache behaviour over a run.
struct DatasetCacheStats {
  int64_t hits = 0;        ///< Partition reads served from cache.
  int64_t recomputes = 0;  ///< Reads of previously-cached-but-evicted partitions.
  int64_t stored = 0;      ///< Successful block stores (incl. re-stores).
  int64_t distinct_cached = 0;   ///< Distinct partitions ever cached (or attempted).
  int64_t distinct_evicted = 0;  ///< Distinct partitions ever evicted/rejected.
  int64_t resident_at_end = 0;   ///< Blocks still in memory when the app ended.
  bool persisted_at_end = false; ///< False once a u() op dropped the dataset.
  int64_t lost = 0;              ///< Blocks dropped by executor loss.
  int64_t recomputed_after_loss = 0;  ///< Lineage recomputes of lost blocks.
};

/// \brief Outcome of one simulated application run.
struct RunResult {
  std::string app_name;
  int machines = 0;
  double duration_ms = 0.0;

  int64_t cache_hits = 0;
  int64_t cache_recomputes = 0;
  int64_t blocks_evicted = 0;
  int64_t store_rejections = 0;
  /// Largest execution-memory footprint any executor reached (bytes).
  double peak_execution_bytes = 0.0;

  // Recovery counters (all zero when RunOptions::faults schedules nothing).
  /// Failed task attempts that were retried (each retry re-occupied a core
  /// for the failed fraction of the task's work).
  int64_t tasks_retried = 0;
  /// Stages re-executed because a child found its parent's shuffle output
  /// gone after an executor loss.
  int64_t stages_reexecuted = 0;
  /// Injected executor losses (one per (stage, machine) the plan fired on).
  int64_t executors_lost = 0;
  /// Cached blocks dropped by executor loss — distinct from blocks_evicted:
  /// losses are failures, evictions are memory pressure.
  int64_t partitions_lost = 0;
  /// Lineage recomputations of previously cached partitions whose block was
  /// lost (not evicted). Always <= cache_recomputes, which counts both.
  int64_t partitions_recomputed_after_loss = 0;
  /// Speculative duplicates launched against stragglers, and how many beat
  /// the original attempt.
  int64_t speculative_launched = 0;
  int64_t speculative_wins = 0;

  std::map<DatasetId, DatasetCacheStats> dataset_stats;

  /// Low-level runtime data; only set for instrumented runs.
  std::shared_ptr<ProfilingDb> profile;

  /// The paper's cost unit: #machines x time, in machine-minutes.
  double CostMachineMinutes() const {
    return MachineMinutes(machines, duration_ms);
  }

  /// Ratio of never-evicted distinct partitions to all distinct partitions
  /// of persisted datasets — the §5.3 measurement behind the memory factor.
  /// Returns 1.0 when nothing was persisted.
  double FractionPartitionsNeverEvicted() const;

  /// Steady-state variant: the fraction of partitions of still-persisted
  /// datasets resident in memory at the end of the run. Robust against
  /// transient straggler-induced evictions that refit in later iterations
  /// (paper §7.5). Returns 1.0 when nothing is persisted at the end.
  double FractionPartitionsResident() const;
};

/// \brief The simulated in-memory processing framework ("MiniSpark").
///
/// Plays both Spark roles the paper needs:
///  - Spark_i: with RunOptions::instrument set, collects per-transformation
///    timestamps and partition sizes into a profiling database;
///  - Juggler engine: Run() takes an explicit CachePlan that *overrides* the
///    application's developer-cached datasets (§5.3 — "a modified version of
///    Spark that overwrites the developer-cached datasets with the
///    recommended schedule").
class Engine {
 public:
  explicit Engine(RunOptions options = RunOptions{}) : options_(options) {}

  /// Runs `app` on `cluster` with caching decisions from `plan`.
  ///
  /// With RunOptions::faults scheduling failures, the run either completes
  /// with correct final metrics (lost partitions recomputed through their
  /// lineage, retries and re-executions folded into the duration and the
  /// recovery counters) or returns a typed error: kAborted naming the task
  /// that exhausted `max_task_attempts` (or the stage that exceeded its
  /// re-execution budget). Never a silently wrong answer, never a hang.
  [[nodiscard]] StatusOr<RunResult> Run(const Application& app, const ClusterConfig& cluster,
                          const CachePlan& plan) const;

  /// Runs with the application's developer default schedule.
  [[nodiscard]] StatusOr<RunResult> RunDefault(const Application& app,
                                 const ClusterConfig& cluster) const {
    return Run(app, cluster, app.default_plan);
  }

 private:
  RunOptions options_;
};

}  // namespace juggler::minispark

#endif  // JUGGLER_MINISPARK_ENGINE_H_
