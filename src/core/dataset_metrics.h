#ifndef JUGGLER_CORE_DATASET_METRICS_H_
#define JUGGLER_CORE_DATASET_METRICS_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "minispark/profiling.h"

namespace juggler::core {

using minispark::DatasetId;

/// \brief The application's merged DAG of operators (paper §3.1),
/// reconstructed purely from instrumentation records — Juggler never reads
/// the application source.
struct MergedDag {
  std::vector<minispark::DatasetRecord> datasets;
  std::vector<std::vector<DatasetId>> children;
  /// Target dataset of each job, in execution order.
  std::vector<DatasetId> job_targets;

  int num_datasets() const { return static_cast<int>(datasets.size()); }

  /// True if `descendant` is reachable from `ancestor` via child edges.
  bool IsDescendant(DatasetId ancestor, DatasetId descendant) const;

  /// Datasets in the lineage of `target` (reachable via parent edges,
  /// including the target itself), ascending.
  std::vector<DatasetId> Lineage(DatasetId target) const;

  /// Index of the first job whose lineage contains `d`, or -1.
  int FirstJobComputing(DatasetId d) const;

  /// True if, in job `job`, dataset `x` is only needed to produce `via`
  /// (removing `via` disconnects `x` from the job target).
  bool OnlyUsedVia(int job, DatasetId x, DatasetId via) const;
};

/// Builds the merged DAG from an instrumented run's profile.
MergedDag BuildMergedDag(const minispark::ProfilingDb& db);

/// \brief Number of times each dataset is computed when the `cached` set is
/// persisted: path counting where a cached dataset is computed once (at
/// first materialization) and afterwards served from memory, cutting its
/// ancestors' recomputations. This is the n-update of Algorithm 1 lines
/// 21-23 in closed form.
std::vector<long long> EffectiveComputationCounts(
    const MergedDag& dag, const std::set<DatasetId>& cached);

/// \brief Per-dataset metrics derived from one instrumented sample run
/// (paper §3): number of computations, size, computation time.
struct DatasetMetric {
  DatasetId id = minispark::kInvalidDataset;
  std::string name;
  /// n — times the dataset is computed if nothing were cached (§3.1).
  long long computations = 0;
  /// Sum of partition sizes (§3.2), bytes.
  double size_bytes = 0.0;
  /// ET_Ti — the operator-level execution-time model of §3.3 (Eq. 1-3), ms.
  double compute_time_ms = 0.0;
};

/// \brief Dataset sizes (§3.2) in bytes, indexed by DatasetId: the sum of
/// the first recorded size of each partition, shuffle writes excluded. The
/// one size rule of stage 1, stage 2 and the online feedback. Internal
/// error on a record of a dataset the profile does not list.
[[nodiscard]] StatusOr<std::vector<double>> MeasureDatasetSizes(
    const minispark::ProfilingDb& db);

/// \brief Derives metrics for every dataset of `db`, whose merged DAG is
/// `dag`. Counts are EffectiveComputationCounts with nothing cached, sizes
/// MeasureDatasetSizes; computation times apply Equation 2 (narrow; three
/// ENT cases averaged over tasks, times the wave count) and Equation 3
/// (wide = Shuffle Write + Shuffle Read); cache reads are not timed.
[[nodiscard]] StatusOr<std::vector<DatasetMetric>> DeriveDatasetMetrics(
    const MergedDag& dag, const minispark::ProfilingDb& db);

}  // namespace juggler::core

#endif  // JUGGLER_CORE_DATASET_METRICS_H_
