#ifndef JUGGLER_CORE_HOTSPOT_H_
#define JUGGLER_CORE_HOTSPOT_H_

#include <set>
#include <vector>

#include "common/status.h"
#include "core/dataset_metrics.h"
#include "core/schedule.h"

namespace juggler::core {

/// \brief Knobs for Algorithm 1. The defaults are the paper's behaviour; the
/// flags exist for the ablations the evaluation section implies (Nagel's
/// cost model is "hotspot detection without re-evaluation or unpersist").
struct HotspotOptions {
  bool reevaluate = true;
  bool unpersist = true;
  bool dedup_equal_cost = true;
  /// Safety bound on selection iterations.
  int max_iterations = 10000;
};

/// \brief Hotspot detection (paper Algorithm 1).
///
/// Produces the incremental list of SCHEDULES: the first caches the single
/// best benefit-cost-ratio dataset; each subsequent schedule caches one more
/// dataset, with re-evaluation replacing a cached dataset when a
/// newly-selected ancestor subsumes it, and unpersist ops inserted where a
/// cached dataset is only needed to produce its successor. Equal-cost
/// schedules keep only the highest benefit.
[[nodiscard]] StatusOr<std::vector<Schedule>> DetectHotspots(
    const MergedDag& dag, const std::vector<DatasetMetric>& metrics,
    const HotspotOptions& options = HotspotOptions{});

/// \brief Renders a dataset set as an executable plan: persists ordered by
/// first materialization (job, then topological id), with unpersist ops
/// inserted for consecutive pairs satisfying the §5.1 condition when
/// `unpersist` is set. Also used by the dataset-selection baselines, which
/// produce plain persist lists.
minispark::CachePlan RenderSchedulePlan(const MergedDag& dag,
                                        std::vector<DatasetId> datasets,
                                        bool unpersist);

/// \brief Benefit of caching `d` given already-cached datasets (Equation 4
/// with the break-at-cached rule): (n-1) x (own time + un-cached ancestors'
/// time). Exposed for the baseline cost models that share the chain term.
double CachingBenefitMs(const MergedDag& dag, const std::vector<double>& et,
                        const std::set<DatasetId>& cached, long long n,
                        DatasetId d);

}  // namespace juggler::core

#endif  // JUGGLER_CORE_HOTSPOT_H_
