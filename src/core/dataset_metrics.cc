#include "core/dataset_metrics.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <set>

namespace juggler::core {

using minispark::ProfilingDb;
using minispark::TransformPart;
using minispark::TransformRecord;

bool MergedDag::IsDescendant(DatasetId ancestor, DatasetId descendant) const {
  if (ancestor == descendant) return false;
  std::vector<DatasetId> stack = {ancestor};
  std::set<DatasetId> seen = {ancestor};
  while (!stack.empty()) {
    const DatasetId id = stack.back();
    stack.pop_back();
    for (DatasetId c : children[static_cast<size_t>(id)]) {
      if (c == descendant) return true;
      if (seen.insert(c).second) stack.push_back(c);
    }
  }
  return false;
}

std::vector<DatasetId> MergedDag::Lineage(DatasetId target) const {
  std::vector<bool> seen(static_cast<size_t>(num_datasets()), false);
  std::vector<DatasetId> stack = {target};
  seen[static_cast<size_t>(target)] = true;
  while (!stack.empty()) {
    const DatasetId id = stack.back();
    stack.pop_back();
    for (DatasetId p : datasets[static_cast<size_t>(id)].parents) {
      if (!seen[static_cast<size_t>(p)]) {
        seen[static_cast<size_t>(p)] = true;
        stack.push_back(p);
      }
    }
  }
  std::vector<DatasetId> out;
  for (int i = 0; i < num_datasets(); ++i) {
    if (seen[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

int MergedDag::FirstJobComputing(DatasetId d) const {
  for (size_t j = 0; j < job_targets.size(); ++j) {
    const auto lineage = Lineage(job_targets[j]);
    if (std::binary_search(lineage.begin(), lineage.end(), d)) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

bool MergedDag::OnlyUsedVia(int job, DatasetId x, DatasetId via) const {
  const DatasetId target = job_targets[static_cast<size_t>(job)];
  // Walk parent edges from the target, never entering `via`. If `x` is still
  // reachable, the job uses x on a path that bypasses `via`.
  std::set<DatasetId> seen = {target};
  std::vector<DatasetId> stack;
  if (target != via) stack.push_back(target);
  while (!stack.empty()) {
    const DatasetId id = stack.back();
    stack.pop_back();
    for (DatasetId p : datasets[static_cast<size_t>(id)].parents) {
      if (p == via) continue;
      if (p == x) return false;
      if (seen.insert(p).second) stack.push_back(p);
    }
  }
  return true;
}

MergedDag BuildMergedDag(const ProfilingDb& db) {
  MergedDag dag;
  dag.datasets = db.datasets();
  std::sort(dag.datasets.begin(), dag.datasets.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  dag.children.assign(dag.datasets.size(), {});
  for (const auto& d : dag.datasets) {
    for (DatasetId p : d.parents) {
      dag.children[static_cast<size_t>(p)].push_back(d.id);
    }
  }
  for (auto& c : dag.children) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  for (const auto& job : db.jobs()) dag.job_targets.push_back(job.target);
  return dag;
}

std::vector<long long> EffectiveComputationCounts(
    const MergedDag& dag, const std::set<DatasetId>& cached) {
  const size_t n = static_cast<size_t>(dag.num_datasets());
  std::vector<long long> counts(n, 0);
  std::vector<long long> mult(n, 0);
  std::vector<bool> materialized(n, false);
  for (DatasetId target : dag.job_targets) {
    std::fill(mult.begin(), mult.end(), 0);
    mult[static_cast<size_t>(target)] = 1;
    for (int id = dag.num_datasets() - 1; id >= 0; --id) {
      const long long m = mult[static_cast<size_t>(id)];
      if (m == 0) continue;
      if (cached.count(id) > 0) {
        if (materialized[static_cast<size_t>(id)]) continue;  // cache hit.
        // First materialization: computed exactly once, then reused even
        // within this job.
        materialized[static_cast<size_t>(id)] = true;
        counts[static_cast<size_t>(id)] += 1;
        for (DatasetId p : dag.datasets[static_cast<size_t>(id)].parents) {
          mult[static_cast<size_t>(p)] += 1;
        }
      } else {
        counts[static_cast<size_t>(id)] += m;
        for (DatasetId p : dag.datasets[static_cast<size_t>(id)].parents) {
          mult[static_cast<size_t>(p)] += m;
        }
      }
    }
  }
  return counts;
}

namespace {

/// One task's transform records, [begin, end) of ProfilingDb::transforms(),
/// with the bounds its last task record reports.
struct TaskSpan {
  int stage, task;
  size_t begin, end;
  double start_ms, finish_ms;
};

}  // namespace

StatusOr<std::vector<double>> MeasureDatasetSizes(const ProfilingDb& db) {
  const size_t num_datasets = db.datasets().size();
  // First recorded size of each partition, NaN where none is recorded.
  std::vector<std::vector<double>> partition_bytes(num_datasets);
  for (const TransformRecord& r : db.transforms()) {
    if (r.dataset < 0 || static_cast<size_t>(r.dataset) >= num_datasets) {
      return Status::Internal("transform record of an unknown dataset");
    }
    if (r.part == TransformPart::kShuffleWrite) continue;
    auto& parts = partition_bytes[static_cast<size_t>(r.dataset)];
    const auto p = static_cast<size_t>(r.task_index);
    if (p >= parts.size()) parts.resize(p + 1, std::nan(""));
    if (std::isnan(parts[p])) parts[p] = r.partition_bytes;
  }
  std::vector<double> sizes(num_datasets, 0.0);
  for (size_t id = 0; id < num_datasets; ++id) {
    for (double bytes : partition_bytes[id]) {
      if (!std::isnan(bytes)) sizes[id] += bytes;
    }
  }
  return sizes;
}

StatusOr<std::vector<DatasetMetric>> DeriveDatasetMetrics(
    const MergedDag& dag, const ProfilingDb& db) {
  const size_t num_datasets = db.datasets().size();
  if (num_datasets == 0 || dag.datasets.size() != num_datasets) {
    return Status::InvalidArgument("empty profile, or a foreign DAG");
  }
  auto sizes = MeasureDatasetSizes(db);
  if (!sizes.ok()) return sizes.status();
  const std::vector<long long> counts = EffectiveComputationCounts(dag, {});
  const auto& records = db.transforms();
  const auto& tasks = db.tasks();

  // A task's transform records are contiguous and in evaluation order, which
  // gives each one's position (first / middle / last) for the ENT cases of
  // Eq. 2. Its task records (failed attempts, speculative copy, winner) come
  // in the same task order; the last one holds the task's bounds.
  std::vector<TaskSpan> spans;
  size_t t = 0;
  for (size_t begin = 0, end; begin < records.size(); begin = end) {
    const TransformRecord& first = records[begin];
    const auto same_task = [&first](const auto& r) {
      return r.job == first.job && r.stage == first.stage &&
             r.task_index == first.task_index;
    };
    end = begin;
    while (end < records.size() && same_task(records[end])) ++end;
    while (t < tasks.size() && !same_task(tasks[t])) ++t;
    while (t + 1 < tasks.size() && same_task(tasks[t + 1])) ++t;
    if (t == tasks.size()) {
      return Status::Internal("transform record without task record");
    }
    spans.push_back(TaskSpan{first.stage, first.task_index, begin, end,
                             tasks[t].start_ms, tasks[t].finish_ms});
  }
  // Stage ids are unique in a run and rise with jobs, but a re-executed
  // parent stage is emitted before the child stage that found its shuffle
  // output gone.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return std::pair(a.stage, a.task) < std::pair(b.stage, b.task);
  });
  std::vector<int> stage_tasks;  // Stage id -> #tasks, or -1.
  for (const auto& s : db.stages()) {
    const auto id = static_cast<size_t>(s.stage);
    if (id >= stage_tasks.size()) stage_tasks.resize(id + 1, -1);
    stage_tasks[id] = s.num_tasks;
  }

  // ENTs are summed per (dataset, part) over one stage's tasks, giving that
  // stage's ET (Eq. 2); ETs are averaged per (dataset, part) across stages,
  // and wide datasets add write and read parts (Eq. 3). Slots: dataset*3+part.
  std::vector<std::pair<double, int>> ent(num_datasets * 3, {0.0, 0});
  std::vector<std::pair<double, int>> et(ent.size(), {0.0, 0});
  std::vector<size_t> stage_slots;
  const int total_cores = std::max(1, db.total_cores());
  for (size_t s = 0; s < spans.size(); ++s) {
    const TaskSpan& span = spans[s];
    for (size_t i = span.begin; i < span.end; ++i) {
      const TransformRecord& r = records[i];
      if (r.from_cache) continue;  // Cache reads are not computations.
      const size_t slot =
          static_cast<size_t>(r.dataset) * 3 + static_cast<size_t>(r.part);
      auto& [sum, n] = ent[slot];
      if (n++ == 0) stage_slots.push_back(slot);
      if (i == span.begin) {
        sum += r.finish_ms - span.start_ms;  // Case 1: first in task.
      } else if (i + 1 == span.end) {
        sum += span.finish_ms - r.start_ms;  // Case 2: last in task.
      } else {
        sum += r.finish_ms - r.start_ms;  // Case 3: between transformations.
      }
    }
    if (s + 1 < spans.size() && spans[s + 1].stage == span.stage) continue;
    const auto id = static_cast<size_t>(span.stage);
    for (size_t slot : stage_slots) {
      const auto [sum, n] = ent[slot];
      const double n_tasks =
          id < stage_tasks.size() && stage_tasks[id] >= 0 ? stage_tasks[id] : n;
      const double waves = std::ceil(n_tasks / total_cores);
      et[slot].first += (sum / static_cast<double>(n)) * waves;
      ++et[slot].second;
      ent[slot] = {0.0, 0};
    }
    stage_slots.clear();
  }

  std::vector<DatasetMetric> metrics;
  metrics.reserve(num_datasets);
  for (const auto& d : dag.datasets) {
    const auto id = static_cast<size_t>(d.id);
    DatasetMetric m{d.id, d.name, counts[id], (*sizes)[id], 0.0};
    for (const auto& [sum, n] : std::span(et).subspan(id * 3, 3)) {
      if (n > 0) m.compute_time_ms += sum / n;
    }
    metrics.push_back(std::move(m));
  }
  return metrics;
}

}  // namespace juggler::core
