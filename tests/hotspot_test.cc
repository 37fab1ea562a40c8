#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "core/dataset_metrics.h"
#include "core/hotspot.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

namespace juggler::core {
namespace {

using minispark::DatasetRecord;
using minispark::TransformKind;

/// Hand-built merged DAG + metrics reproducing the paper's Logistic
/// Regression running example (§5.1, Figure 4): D0 -> D1 -> D2 -> D11 with
/// counts 8/8/6/4, ETs 2700/10/14/40 ms and sizes 76.351/76.347/45.961/
/// 45.975 MB. Probe/eval/iteration tails provide the job structure.
struct PaperExample {
  MergedDag dag;
  std::vector<DatasetMetric> metrics;
  // Ids.
  DatasetId d0 = 0, d1 = 1, d2 = 2, d11 = 3;
  DatasetId count_probe = 4, stats_probe = 5, eval1 = 6, eval2 = 7;
  DatasetId g0 = 8, g1 = 9, g2 = 10, g3 = 11;
};

PaperExample MakePaperExample() {
  PaperExample ex;
  auto add = [&](DatasetId id, const std::string& name,
                 std::vector<DatasetId> parents) {
    ex.dag.datasets.push_back(
        DatasetRecord{id, name, TransformKind::kNarrow, std::move(parents), 4});
  };
  add(ex.d0, "d0", {});
  add(ex.d1, "d1", {ex.d0});
  add(ex.d2, "d2", {ex.d1});
  add(ex.d11, "d11", {ex.d2});
  add(ex.count_probe, "count-probe", {ex.d2});
  add(ex.stats_probe, "stats-probe", {ex.d2});
  add(ex.eval1, "eval1", {ex.d1});
  add(ex.eval2, "eval2", {ex.d1});
  add(ex.g0, "g0", {ex.d11});
  add(ex.g1, "g1", {ex.d11});
  add(ex.g2, "g2", {ex.d11});
  add(ex.g3, "g3", {ex.d11});
  ex.dag.children.assign(ex.dag.datasets.size(), {});
  for (const auto& d : ex.dag.datasets) {
    for (DatasetId p : d.parents) {
      ex.dag.children[static_cast<size_t>(p)].push_back(d.id);
    }
  }
  // Jobs: count, stats, 4 iterations, 2 evals.
  ex.dag.job_targets = {ex.count_probe, ex.stats_probe, ex.g0, ex.g1,
                        ex.g2,          ex.g3,          ex.eval1, ex.eval2};

  auto metric = [&](DatasetId id, long long n, double et, double mb) {
    DatasetMetric m;
    m.id = id;
    m.name = ex.dag.datasets[static_cast<size_t>(id)].name;
    m.computations = n;
    m.compute_time_ms = et;
    m.size_bytes = mb;  // The paper's tables are in MB; units only need to
                        // be consistent.
    ex.metrics.push_back(m);
  };
  metric(ex.d0, 8, 2700, 76.351);
  metric(ex.d1, 8, 10, 76.347);
  metric(ex.d2, 6, 14, 45.961);
  metric(ex.d11, 4, 40, 45.975);
  for (DatasetId t : {ex.count_probe, ex.stats_probe, ex.eval1, ex.eval2, ex.g0,
                      ex.g1, ex.g2, ex.g3}) {
    metric(t, 1, 1.0, 0.001);
  }
  return ex;
}

TEST(EffectiveCountsTest, NoCachingMatchesBaseCounts) {
  const auto ex = MakePaperExample();
  const auto counts = EffectiveComputationCounts(ex.dag, {});
  EXPECT_EQ(counts[0], 8);
  EXPECT_EQ(counts[1], 8);
  EXPECT_EQ(counts[2], 6);
  EXPECT_EQ(counts[3], 4);
}

TEST(EffectiveCountsTest, CachingD2CutsAncestors) {
  // The paper's second table: after caching D2, D0 and D1 drop to 3
  // (first materialization + the two eval jobs reading D1 directly).
  const auto ex = MakePaperExample();
  const auto counts = EffectiveComputationCounts(ex.dag, {ex.d2});
  EXPECT_EQ(counts[ex.d2], 1);
  EXPECT_EQ(counts[ex.d1], 3);
  EXPECT_EQ(counts[ex.d0], 3);
  EXPECT_EQ(counts[ex.d11], 4);
}

TEST(EffectiveCountsTest, CachingD1KeepsD2Recomputations) {
  // The paper's third table: with D1 cached, D2 stays at 6 computations.
  const auto ex = MakePaperExample();
  const auto counts = EffectiveComputationCounts(ex.dag, {ex.d1});
  EXPECT_EQ(counts[ex.d1], 1);
  EXPECT_EQ(counts[ex.d2], 6);
  EXPECT_EQ(counts[ex.d0], 1);
}

TEST(CachingBenefitTest, MatchesPaperNumbers) {
  const auto ex = MakePaperExample();
  std::vector<double> et(ex.dag.datasets.size(), 1.0);
  et[0] = 2700;
  et[1] = 10;
  et[2] = 14;
  et[3] = 40;
  // Initial benefits (first table in §5.1's example).
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {}, 8, ex.d0), 18900);
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {}, 8, ex.d1), 18970);
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {}, 6, ex.d2), 13620);
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {}, 4, ex.d11), 8292);
  // After caching D2, D11's chain stops at D2: benefit = 3 x 40.
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {ex.d2}, 4, ex.d11), 120);
  // After caching D1, D11's chain includes D2: benefit = 3 x (40 + 14).
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {ex.d1}, 4, ex.d11), 162);
  EXPECT_DOUBLE_EQ(CachingBenefitMs(ex.dag, et, {}, 1, ex.d0), 0.0);
}

TEST(HotspotTest, ReproducesPaperExampleSchedules) {
  // The paper ends with two schedules: p(2), and p(1) p(2) u(2) p(11)
  // (the {D1, D11} schedule is discarded for equal cost / lower benefit).
  const auto ex = MakePaperExample();
  auto schedules = DetectHotspots(ex.dag, ex.metrics);
  ASSERT_TRUE(schedules.ok());
  ASSERT_EQ(schedules->size(), 2u);

  EXPECT_EQ((*schedules)[0].plan.ToString(), "p(2)");
  EXPECT_NEAR((*schedules)[0].memory_bytes, 45.961, 1e-6);

  EXPECT_EQ((*schedules)[1].plan.ToString(), "p(1) p(2) u(2) p(3)");  // 3=D11.
  EXPECT_NEAR((*schedules)[1].memory_bytes, 76.347 + 45.975, 1e-6);
  EXPECT_GT((*schedules)[1].benefit_ms, (*schedules)[0].benefit_ms);
}

TEST(HotspotTest, WithoutReevaluationKeepsGreedyOrder) {
  // Nagel-style ablation: the second schedule keeps D2 and adds D1 instead
  // of re-evaluating, yielding a worse (bigger) memory budget for the same
  // benefit structure.
  const auto ex = MakePaperExample();
  HotspotOptions options;
  options.reevaluate = false;
  auto schedules = DetectHotspots(ex.dag, ex.metrics, options);
  ASSERT_TRUE(schedules.ok());
  ASSERT_GE(schedules->size(), 2u);
  EXPECT_EQ((*schedules)[0].plan.ToString(), "p(2)");
  // D2 is never displaced, so every later schedule still contains it.
  for (const auto& s : *schedules) {
    EXPECT_NE(std::find(s.datasets.begin(), s.datasets.end(), ex.d2),
              s.datasets.end());
  }
}

TEST(HotspotTest, WithoutUnpersistPlansHaveNoUOps) {
  const auto ex = MakePaperExample();
  HotspotOptions options;
  options.unpersist = false;
  options.dedup_equal_cost = false;
  auto schedules = DetectHotspots(ex.dag, ex.metrics, options);
  ASSERT_TRUE(schedules.ok());
  for (const auto& s : *schedules) {
    for (const auto& op : s.plan.ops) {
      EXPECT_EQ(op.kind, minispark::CacheOp::Kind::kPersist);
    }
  }
}

TEST(HotspotTest, WithoutDedupKeepsEqualCostSchedules) {
  const auto ex = MakePaperExample();
  HotspotOptions options;
  options.dedup_equal_cost = false;
  auto schedules = DetectHotspots(ex.dag, ex.metrics, options);
  ASSERT_TRUE(schedules.ok());
  EXPECT_EQ(schedules->size(), 3u);  // {D2}, {D1,D11}, {D1,D2,D11}.
}

TEST(HotspotTest, SingleChildNeverJoinsParentSchedule) {
  // chain: src -> a -> b where b is a's only child; b must never be
  // scheduled together with a.
  MergedDag dag;
  auto add = [&](DatasetId id, std::vector<DatasetId> parents) {
    dag.datasets.push_back(
        DatasetRecord{id, "d" + std::to_string(id), TransformKind::kNarrow,
                      std::move(parents), 2});
  };
  add(0, {});
  add(1, {0});
  add(2, {1});
  // Iteration tails reading b(2).
  add(3, {2});
  add(4, {2});
  add(5, {2});
  dag.children = {{1}, {2}, {3, 4, 5}, {}, {}, {}};
  dag.job_targets = {3, 4, 5};

  std::vector<DatasetMetric> metrics;
  for (DatasetId d = 0; d < 6; ++d) {
    DatasetMetric m;
    m.id = d;
    m.computations = d <= 2 ? 3 : 1;
    m.compute_time_ms = d == 0 ? 1000 : 10;
    m.size_bytes = 100;
    metrics.push_back(m);
  }
  auto schedules = DetectHotspots(dag, metrics);
  ASSERT_TRUE(schedules.ok());
  for (const auto& s : *schedules) {
    const std::set<DatasetId> set(s.datasets.begin(), s.datasets.end());
    EXPECT_FALSE(set.count(1) > 0 && set.count(2) > 0)
        << "b (single child of a) scheduled with a in " << s.plan.ToString();
  }
}

TEST(HotspotTest, EmptyWhenNothingIntermediate) {
  MergedDag dag;
  dag.datasets.push_back(DatasetRecord{0, "s", TransformKind::kSource, {}, 2});
  dag.datasets.push_back(
      DatasetRecord{1, "t", TransformKind::kNarrow, {0}, 2});
  dag.children = {{1}, {}};
  dag.job_targets = {1};
  std::vector<DatasetMetric> metrics(2);
  metrics[0].id = 0;
  metrics[0].computations = 1;
  metrics[1].id = 1;
  metrics[1].computations = 1;
  auto schedules = DetectHotspots(dag, metrics);
  ASSERT_TRUE(schedules.ok());
  EXPECT_TRUE(schedules->empty());
}

TEST(HotspotTest, RejectsMetricForUnknownDataset) {
  MergedDag dag;
  dag.datasets.push_back(DatasetRecord{0, "s", TransformKind::kSource, {}, 2});
  dag.children = {{}};
  dag.job_targets = {0};
  DatasetMetric m;
  m.id = 5;
  EXPECT_FALSE(DetectHotspots(dag, {m}).ok());
}

TEST(PeakPlanBytesTest, UnpersistShrinksPeak) {
  minispark::CachePlan plan =
      minispark::CachePlan::Parse("p(1) u(1) p(2) u(2) p(3)").value();
  const std::map<DatasetId, double> sizes = {{1, 100}, {2, 80}, {3, 120}};
  EXPECT_DOUBLE_EQ(PeakPlanBytes(plan, sizes), 120);
  minispark::CachePlan no_u = minispark::CachePlan::Parse("p(1) p(2) p(3)").value();
  EXPECT_DOUBLE_EQ(PeakPlanBytes(no_u, sizes), 300);
  minispark::CachePlan partial =
      minispark::CachePlan::Parse("p(1) p(2) u(2) p(3)").value();
  EXPECT_DOUBLE_EQ(PeakPlanBytes(partial, sizes), 220);
}

TEST(PeakPlanBytesTest, MissingSizesCountAsZero) {
  minispark::CachePlan plan = minispark::CachePlan::Parse("p(9)").value();
  EXPECT_DOUBLE_EQ(PeakPlanBytes(plan, {}), 0.0);
}

/// Property sweep over random applications: schedules are structurally
/// sound — unique datasets, valid plans (unpersist only after persist),
/// monotone non-decreasing benefit, positive memory budgets.
class HotspotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HotspotPropertyTest, SchedulesAreWellFormed) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  workloads::RandomAppOptions opts;
  const auto app = workloads::MakeRandomApplication(&rng, opts);
  ASSERT_TRUE(minispark::Validate(app).ok());

  minispark::RunOptions ro;
  ro.instrument = true;
  ro.noise_sigma = 0.0;
  ro.straggler_prob = 0.0;
  minispark::Engine engine(ro);
  auto run = engine.RunDefault(app, minispark::PaperCluster(2));
  ASSERT_TRUE(run.ok());
  const MergedDag dag = BuildMergedDag(*run->profile);
  auto metrics = DeriveDatasetMetrics(dag, *run->profile);
  ASSERT_TRUE(metrics.ok());

  auto schedules = DetectHotspots(dag, *metrics);
  ASSERT_TRUE(schedules.ok());
  double prev_benefit = -1.0;
  for (const auto& s : *schedules) {
    // Unique datasets.
    const std::set<DatasetId> set(s.datasets.begin(), s.datasets.end());
    EXPECT_EQ(set.size(), s.datasets.size());
    // Plan: persists exactly the schedule's datasets; unpersists only
    // previously-persisted datasets.
    std::set<DatasetId> persisted;
    for (const auto& op : s.plan.ops) {
      if (op.kind == minispark::CacheOp::Kind::kPersist) {
        EXPECT_TRUE(set.count(op.dataset) > 0);
        persisted.insert(op.dataset);
      } else {
        EXPECT_TRUE(persisted.count(op.dataset) > 0);
      }
    }
    EXPECT_EQ(persisted.size(), set.size());
    EXPECT_GE(s.memory_bytes, 0.0);
    EXPECT_GE(s.benefit_ms, prev_benefit - 1e-9);
    prev_benefit = s.benefit_ms;
    // Running the plan must succeed.
    minispark::Engine plain{minispark::RunOptions{}};
    EXPECT_TRUE(plain.Run(app, minispark::PaperCluster(2), s.plan).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, HotspotPropertyTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace juggler::core
