#include "minispark/application.h"

#include <algorithm>
#include <utility>

namespace juggler::minispark {

Status Validate(const Application& app) {
  const int n = app.num_datasets();
  for (int i = 0; i < n; ++i) {
    const Dataset& d = app.datasets[static_cast<size_t>(i)];
    if (d.id != i) {
      return Status::InvalidArgument("dataset ids must be dense; got " +
                                     std::to_string(d.id) + " at index " +
                                     std::to_string(i));
    }
    if (d.num_partitions <= 0) {
      return Status::InvalidArgument("dataset '" + d.name +
                                     "' has non-positive partition count");
    }
    if (d.bytes < 0 || d.compute_ms < 0 || d.exec_memory_per_task_bytes < 0) {
      return Status::InvalidArgument("dataset '" + d.name +
                                     "' has negative size/cost");
    }
    if (d.kind == TransformKind::kSource && !d.parents.empty()) {
      return Status::InvalidArgument("source dataset '" + d.name +
                                     "' must have no parents");
    }
    if (d.kind != TransformKind::kSource && d.parents.empty()) {
      return Status::InvalidArgument("non-source dataset '" + d.name +
                                     "' must have parents");
    }
    for (DatasetId p : d.parents) {
      if (p < 0 || p >= i) {
        return Status::InvalidArgument(
            "dataset '" + d.name +
            "' has invalid parent id (parents must precede children): " +
            std::to_string(p));
      }
    }
  }
  if (app.jobs.empty()) {
    return Status::InvalidArgument("application has no jobs");
  }
  for (const Job& job : app.jobs) {
    if (job.target < 0 || job.target >= n) {
      return Status::InvalidArgument("job '" + job.name +
                                     "' targets unknown dataset");
    }
  }
  for (const CacheOp& op : app.default_plan.ops) {
    if (op.dataset < 0 || op.dataset >= n) {
      return Status::InvalidArgument("default plan references unknown dataset " +
                                     std::to_string(op.dataset));
    }
  }
  return Status::OK();
}

DatasetId DagBuilder::Add(Dataset d) {
  d.id = static_cast<DatasetId>(app_.datasets.size());
  app_.datasets.push_back(std::move(d));
  return app_.datasets.back().id;
}

DatasetId DagBuilder::AddSource(std::string name, double bytes,
                                int partitions) {
  Dataset d;
  d.name = std::move(name);
  d.kind = TransformKind::kSource;
  d.bytes = bytes;
  d.num_partitions = partitions;
  return Add(std::move(d));
}

DatasetId DagBuilder::AddNarrow(std::string name,
                                std::vector<DatasetId> parents, double bytes,
                                double compute_ms,
                                double exec_memory_per_task) {
  Dataset d;
  d.name = std::move(name);
  d.kind = TransformKind::kNarrow;
  d.parents = std::move(parents);
  d.bytes = bytes;
  d.compute_ms = compute_ms;
  d.exec_memory_per_task_bytes = exec_memory_per_task;
  // Narrow transformations inherit the first parent's partitioning.
  d.num_partitions =
      app_.datasets[static_cast<size_t>(d.parents.front())].num_partitions;
  return Add(std::move(d));
}

DatasetId DagBuilder::AddWide(std::string name,
                              std::vector<DatasetId> parents, double bytes,
                              double compute_ms, int partitions,
                              double exec_memory_per_task) {
  Dataset d;
  d.name = std::move(name);
  d.kind = TransformKind::kWide;
  d.parents = std::move(parents);
  d.bytes = bytes;
  d.compute_ms = compute_ms;
  d.exec_memory_per_task_bytes = exec_memory_per_task;
  d.num_partitions =
      partitions > 0
          ? partitions
          : app_.datasets[static_cast<size_t>(d.parents.front())].num_partitions;
  return Add(std::move(d));
}

void DagBuilder::AddJob(std::string name, DatasetId target,
                        double result_bytes) {
  app_.jobs.push_back(Job{std::move(name), target, result_bytes});
}

std::vector<long long> ComputationCounts(const Application& app) {
  std::vector<long long> counts(static_cast<size_t>(app.num_datasets()), 0);
  // Within one job, the number of times a dataset is computed equals the
  // number of lineage paths from the target to it. Counting top-down with a
  // per-job multiplicity vector avoids exponential recursion on diamonds.
  std::vector<long long> mult(counts.size());
  for (const Job& job : app.jobs) {
    std::fill(mult.begin(), mult.end(), 0);
    mult[static_cast<size_t>(job.target)] = 1;
    // Ids are topologically ordered (parents < children), so a single
    // descending sweep propagates multiplicities to parents.
    for (int id = app.num_datasets() - 1; id >= 0; --id) {
      const long long m = mult[static_cast<size_t>(id)];
      if (m == 0) continue;
      counts[static_cast<size_t>(id)] += m;
      for (DatasetId p : app.dataset(id).parents) {
        mult[static_cast<size_t>(p)] += m;
      }
    }
  }
  return counts;
}

}  // namespace juggler::minispark
