#ifndef JUGGLER_MINISPARK_APPLICATION_H_
#define JUGGLER_MINISPARK_APPLICATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "minispark/cache_plan.h"
#include "minispark/dataset.h"
#include "minispark/types.h"

namespace juggler::minispark {

/// \brief A complete application: the logical DAG of datasets plus the
/// ordered list of jobs (actions) over it (paper §2.1).
///
/// Applications are produced by workload factories for concrete AppParams;
/// Juggler re-instantiates the factory with different parameters during
/// offline training.
struct Application {
  std::string name;
  AppParams params;
  std::vector<Dataset> datasets;
  std::vector<Job> jobs;
  /// The developer-cached datasets (HiBench default schedule).
  CachePlan default_plan;

  const Dataset& dataset(DatasetId id) const {
    return datasets[static_cast<size_t>(id)];
  }
  int num_datasets() const { return static_cast<int>(datasets.size()); }
};

/// \brief Checks structural invariants: dense ids, parents precede children
/// (acyclicity), jobs target existing datasets, cache plans reference
/// existing datasets, positive partition counts.
[[nodiscard]] Status Validate(const Application& app);

/// \brief Incrementally builds an Application. Keeps workload factories
/// terse: each Add* returns the new dataset's id.
class DagBuilder {
 public:
  explicit DagBuilder(std::string app_name) { app_.name = std::move(app_name); }

  void SetParams(const AppParams& params) { app_.params = params; }

  /// Adds a source (HDFS-read) dataset.
  DatasetId AddSource(std::string name, double bytes, int partitions);

  /// Adds a narrow transformation over one or more parents.
  DatasetId AddNarrow(std::string name, std::vector<DatasetId> parents,
                      double bytes, double compute_ms,
                      double exec_memory_per_task = 0.0);

  /// Adds a wide (shuffle) transformation. `partitions` may differ from the
  /// parents' (repartitioning); pass 0 to inherit from the first parent.
  DatasetId AddWide(std::string name, std::vector<DatasetId> parents,
                    double bytes, double compute_ms, int partitions = 0,
                    double exec_memory_per_task = 0.0);

  /// Appends a job (action) materializing `target`.
  void AddJob(std::string name, DatasetId target, double result_bytes = 0.0);

  void SetDefaultPlan(CachePlan plan) { app_.default_plan = std::move(plan); }

  const Application& app() const { return app_; }
  Application Build() && { return std::move(app_); }

 private:
  DatasetId Add(Dataset d);

  Application app_;
};

/// \brief Number of times each dataset is computed when nothing is cached —
/// the paper's n (§3.1, "number of leaves in the merged DAG").
///
/// Computing a job's target once computes each parent once per reference, so
/// within one job the count of a dataset is the number of lineage paths from
/// the target down to it; the totals add up across jobs.
std::vector<long long> ComputationCounts(const Application& app);

}  // namespace juggler::minispark

#endif  // JUGGLER_MINISPARK_APPLICATION_H_
