#include "core/hotspot.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"

namespace juggler::core {

double CachingBenefitMs(const MergedDag& dag, const std::vector<double>& et,
                        const std::set<DatasetId>& cached, long long n,
                        DatasetId d) {
  if (n <= 1) return 0.0;
  double chain = et[static_cast<size_t>(d)];
  std::set<DatasetId> seen = {d};
  std::vector<DatasetId> stack = {d};
  while (!stack.empty()) {
    const DatasetId id = stack.back();
    stack.pop_back();
    for (DatasetId p : dag.datasets[static_cast<size_t>(id)].parents) {
      if (cached.count(p) > 0) continue;  // Caching d saves nothing above here.
      if (seen.insert(p).second) {
        chain += et[static_cast<size_t>(p)];
        stack.push_back(p);
      }
    }
  }
  return static_cast<double>(n - 1) * chain;
}

namespace {

/// Safety bound on Algorithm 1's selection iterations.
constexpr int kMaxIterations = 10000;

/// True if `d` is the sole (merged-DAG) child of some dataset in `cached` —
/// such datasets are never added to a schedule containing their parent.
bool IsSingleChildOfAny(const MergedDag& dag,
                        const std::vector<DatasetId>& schedule, DatasetId d) {
  for (DatasetId s : schedule) {
    const auto& kids = dag.children[static_cast<size_t>(s)];
    if (kids.size() == 1 && kids[0] == d) return true;
  }
  return false;
}

/// §5.1's unpersist condition: `x` may be dropped when `y` is cached iff `y`
/// descends from `x` and, in every job from y's first materialization
/// onward, `x` is needed only to produce `y`.
bool CanUnpersist(const MergedDag& dag, DatasetId x, DatasetId y) {
  if (!dag.IsDescendant(x, y)) return false;
  const int first = dag.FirstJobComputing(y);
  if (first < 0) return false;
  for (int j = first; j < static_cast<int>(dag.job_targets.size()); ++j) {
    if (!dag.OnlyUsedVia(j, x, y)) return false;
  }
  return true;
}

}  // namespace

minispark::CachePlan RenderSchedulePlan(const MergedDag& dag,
                                        std::vector<DatasetId> datasets,
                                        bool unpersist) {
  std::sort(datasets.begin(), datasets.end(), [&](DatasetId a, DatasetId b) {
    const int ja = dag.FirstJobComputing(a);
    const int jb = dag.FirstJobComputing(b);
    if (ja != jb) return ja < jb;
    return a < b;  // Ids are topologically ordered: ancestors first.
  });
  minispark::CachePlan plan;
  for (size_t i = 0; i < datasets.size(); ++i) {
    if (unpersist && i > 0 && CanUnpersist(dag, datasets[i - 1], datasets[i])) {
      plan.ops.push_back(minispark::CacheOp::Unpersist(datasets[i - 1]));
    }
    plan.ops.push_back(minispark::CacheOp::Persist(datasets[i]));
  }
  return plan;
}

StatusOr<std::vector<Schedule>> DetectHotspots(
    const MergedDag& dag, const std::vector<DatasetMetric>& metrics,
    const HotspotOptions& options) {
  const size_t n = static_cast<size_t>(dag.num_datasets());
  std::vector<double> et(n, 0.0);
  std::vector<double> size(n, 0.0);
  std::vector<long long> base_counts(n, 0);
  for (const DatasetMetric& m : metrics) {
    if (m.id < 0 || m.id >= dag.num_datasets()) {
      return Status::InvalidArgument("metric references dataset " +
                                     std::to_string(m.id) +
                                     " absent from the merged DAG");
    }
    et[static_cast<size_t>(m.id)] = m.compute_time_ms;
    size[static_cast<size_t>(m.id)] = m.size_bytes;
    base_counts[static_cast<size_t>(m.id)] = m.computations;
  }

  // Line 1: all intermediate datasets (computed more than once).
  std::set<DatasetId> candidates;
  for (const DatasetMetric& m : metrics) {
    if (m.computations > 1) candidates.insert(m.id);
  }

  std::vector<DatasetId> schedule_cur;
  std::vector<std::vector<DatasetId>> snapshots;

  int iterations = 0;
  while (!candidates.empty() && iterations++ < kMaxIterations) {
    const std::set<DatasetId> cached(schedule_cur.begin(), schedule_cur.end());
    const std::vector<long long> n_eff = EffectiveComputationCounts(dag, cached);

    // Rank candidates by benefit-cost ratio.
    struct Ranked {
      DatasetId id;
      double bcr;
    };
    std::vector<Ranked> ranked;
    for (DatasetId d : candidates) {
      const double benefit =
          CachingBenefitMs(dag, et, cached, n_eff[static_cast<size_t>(d)], d);
      if (benefit <= 0.0) continue;
      const double bytes = std::max(size[static_cast<size_t>(d)], 1.0);
      ranked.push_back(Ranked{d, benefit / bytes});
    }
    if (ranked.empty()) break;  // Nothing left worth caching.
    std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
      if (a.bcr != b.bcr) return a.bcr > b.bcr;
      return a.id < b.id;
    });

    // Lines 11-13: skip single children of already-scheduled datasets.
    DatasetId d_max = minispark::kInvalidDataset;
    for (const Ranked& r : ranked) {
      if (!IsSingleChildOfAny(dag, schedule_cur, r.id)) {
        d_max = r.id;
        break;
      }
    }
    if (d_max == minispark::kInvalidDataset) break;

    candidates.erase(d_max);
    // Lines 16-20: re-evaluation — if the last scheduled dataset descends
    // from the new pick, return it to the pool and continue selecting.
    bool re_evaluation = false;
    if (options.reevaluate && !schedule_cur.empty()) {
      const DatasetId last = schedule_cur.back();
      if (dag.IsDescendant(d_max, last)) {
        schedule_cur.pop_back();
        candidates.insert(last);
        re_evaluation = true;
      }
    }
    schedule_cur.push_back(d_max);
    if (re_evaluation) continue;
    snapshots.push_back(schedule_cur);
  }
  if (iterations >= kMaxIterations) {
    JUGGLER_LOG(Warning) << "hotspot detection hit the iteration bound; "
                            "returning the schedules found so far";
  }

  // Render schedules, compute cost and benefit.
  std::map<DatasetId, double> size_map;
  for (const DatasetMetric& m : metrics) size_map[m.id] = m.size_bytes;
  const std::vector<long long> n_base =
      EffectiveComputationCounts(dag, std::set<DatasetId>{});

  std::vector<Schedule> schedules;
  for (const auto& snapshot : snapshots) {
    Schedule s;
    s.datasets = snapshot;
    s.plan = RenderSchedulePlan(dag, snapshot, options.unpersist);
    s.memory_bytes = PeakPlanBytes(s.plan, size_map);
    const std::set<DatasetId> cached(snapshot.begin(), snapshot.end());
    const std::vector<long long> n_eff = EffectiveComputationCounts(dag, cached);
    double saved = 0.0;
    for (size_t i = 0; i < n; ++i) {
      saved += static_cast<double>(n_base[i] - n_eff[i]) * et[i];
    }
    s.benefit_ms = saved;
    schedules.push_back(std::move(s));
  }

  // Lines 30-32: among equal-cost schedules keep the one with most benefit.
  if (options.dedup_equal_cost) {
    std::vector<Schedule> kept;
    for (const Schedule& s : schedules) {
      bool dominated = false;
      for (const Schedule& other : schedules) {
        if (&other == &s) continue;
        const bool same_cost =
            std::fabs(other.memory_bytes - s.memory_bytes) <=
            1e-6 * std::max(other.memory_bytes, s.memory_bytes) + 1.0;
        if (same_cost && (other.benefit_ms > s.benefit_ms ||
                          (other.benefit_ms == s.benefit_ms && &other < &s))) {
          dominated = true;
          break;
        }
      }
      if (!dominated) kept.push_back(s);
    }
    schedules = std::move(kept);
  }

  for (size_t i = 0; i < schedules.size(); ++i) {
    schedules[i].id = static_cast<int>(i) + 1;
  }
  return schedules;
}

}  // namespace juggler::core
