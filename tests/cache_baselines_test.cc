#include <gtest/gtest.h>

#include <set>

#include "baselines/cache_baselines.h"
#include "core/dataset_metrics.h"
#include "core/hotspot.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

namespace juggler::baselines {
namespace {

using core::DatasetMetric;
using core::MergedDag;
using minispark::DatasetRecord;
using minispark::TransformKind;

/// Chain s -> big -> small where `small` is recomputed often, `big` is huge
/// but slow to compute. Distinguishes size-aware from size-blind policies.
struct TestDag {
  MergedDag dag;
  std::vector<DatasetMetric> metrics;
};

TestDag MakeTestDag() {
  TestDag t;
  auto add = [&](core::DatasetId id, std::vector<core::DatasetId> parents) {
    t.dag.datasets.push_back(DatasetRecord{
        id, "d" + std::to_string(id), TransformKind::kNarrow,
        std::move(parents), 4});
  };
  add(0, {});        // source
  add(1, {0});       // big: expensive, huge
  add(2, {1});       // small: cheap, tiny, many uses
  add(3, {1});       // another child of big (so 2 is not a single child)
  // Per-job tails reading `small`.
  for (core::DatasetId id = 4; id < 10; ++id) add(id, {2});
  t.dag.children.assign(t.dag.datasets.size(), {});
  for (const auto& d : t.dag.datasets) {
    for (auto p : d.parents) t.dag.children[static_cast<size_t>(p)].push_back(d.id);
  }
  t.dag.job_targets = {4, 5, 6, 7, 8, 9, 3};

  auto metric = [&](core::DatasetId id, long long n, double et, double size) {
    DatasetMetric m;
    m.id = id;
    m.computations = n;
    m.compute_time_ms = et;
    m.size_bytes = size;
    t.metrics.push_back(m);
  };
  metric(0, 7, 500, 1e9);
  metric(1, 7, 5000, 8e9);   // big
  metric(2, 6, 100, 1e7);    // small
  metric(3, 1, 10, 1e6);
  for (core::DatasetId id = 4; id < 10; ++id) metric(id, 1, 1, 1e3);
  return t;
}

TEST(CachePolicyTest, NamesAndOrder) {
  EXPECT_EQ(CachePolicyName(CachePolicy::kLrc), "LRC");
  EXPECT_EQ(CachePolicyName(CachePolicy::kMrd), "MRD");
  EXPECT_EQ(CachePolicyName(CachePolicy::kHagedorn), "[23]");
  EXPECT_EQ(CachePolicyName(CachePolicy::kNagel), "[44]");
  EXPECT_EQ(CachePolicyName(CachePolicy::kJindal), "[28]");
  EXPECT_EQ(AllCachePolicies().size(), 5u);
}

TEST(CachePolicyTest, LrcPicksHighestReferenceCount) {
  const auto t = MakeTestDag();
  auto schedules = SelectSchedulesWithPolicy(CachePolicy::kLrc, t.dag, t.metrics);
  ASSERT_TRUE(schedules.ok());
  ASSERT_FALSE(schedules->empty());
  // LRC ignores size/time: datasets 0 and 1 have count 7 > small's 6; the
  // tie between 0 and 1 breaks to the deeper dataset (the most derived
  // data is what reference-count policies retain).
  EXPECT_EQ((*schedules)[0].datasets, (std::vector<core::DatasetId>{1}));
}

TEST(CachePolicyTest, HagedornIgnoresSize) {
  const auto t = MakeTestDag();
  auto schedules =
      SelectSchedulesWithPolicy(CachePolicy::kHagedorn, t.dag, t.metrics);
  ASSERT_TRUE(schedules.ok());
  ASSERT_FALSE(schedules->empty());
  // Benefit-only ranking picks the huge-but-expensive chain end: dataset 2
  // has chain 100+5000+500; dataset 1 has (7-1)*(5500). 1 wins.
  EXPECT_EQ((*schedules)[0].datasets.front(), 1);
}

TEST(CachePolicyTest, NagelUsesBenefitPerByte) {
  const auto t = MakeTestDag();
  auto schedules =
      SelectSchedulesWithPolicy(CachePolicy::kNagel, t.dag, t.metrics);
  ASSERT_TRUE(schedules.ok());
  ASSERT_FALSE(schedules->empty());
  // Per byte, the small dataset wins by orders of magnitude.
  EXPECT_EQ((*schedules)[0].datasets.front(), 2);
}

TEST(CachePolicyTest, JindalRankingIsStatic) {
  const auto t = MakeTestDag();
  auto schedules =
      SelectSchedulesWithPolicy(CachePolicy::kJindal, t.dag, t.metrics, 3);
  ASSERT_TRUE(schedules.ok());
  ASSERT_GE(schedules->size(), 2u);
  // Static utilities: schedule k is the top-k prefix — schedule 2 extends
  // schedule 1.
  const auto& s1 = (*schedules)[0].datasets;
  const auto& s2 = (*schedules)[1].datasets;
  ASSERT_GT(s2.size(), s1.size());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(CachePolicyTest, SchedulesAreIncremental) {
  const auto t = MakeTestDag();
  for (CachePolicy policy : AllCachePolicies()) {
    auto schedules = SelectSchedulesWithPolicy(policy, t.dag, t.metrics, 4);
    ASSERT_TRUE(schedules.ok()) << CachePolicyName(policy);
    for (size_t i = 1; i < schedules->size(); ++i) {
      EXPECT_EQ((*schedules)[i].datasets.size(),
                (*schedules)[i - 1].datasets.size() + 1)
          << CachePolicyName(policy);
    }
    for (const auto& s : *schedules) {
      const std::set<core::DatasetId> set(s.datasets.begin(), s.datasets.end());
      EXPECT_EQ(set.size(), s.datasets.size()) << CachePolicyName(policy);
      EXPECT_GT(s.benefit_ms, 0.0) << CachePolicyName(policy);
    }
  }
}

TEST(CachePolicyTest, MaxSchedulesRespected) {
  const auto t = MakeTestDag();
  for (CachePolicy policy : AllCachePolicies()) {
    auto schedules = SelectSchedulesWithPolicy(policy, t.dag, t.metrics, 1);
    ASSERT_TRUE(schedules.ok());
    EXPECT_LE(schedules->size(), 1u) << CachePolicyName(policy);
  }
}

TEST(CachePolicyTest, NoPlansContainUnpersist) {
  const auto t = MakeTestDag();
  for (CachePolicy policy : AllCachePolicies()) {
    auto schedules = SelectSchedulesWithPolicy(policy, t.dag, t.metrics);
    ASSERT_TRUE(schedules.ok());
    for (const auto& s : *schedules) {
      for (const auto& op : s.plan.ops) {
        EXPECT_EQ(op.kind, minispark::CacheOp::Kind::kPersist)
            << CachePolicyName(policy);
      }
    }
  }
}

TEST(CachePolicyTest, RejectsUnknownDatasetMetric) {
  const auto t = MakeTestDag();
  std::vector<DatasetMetric> bad = t.metrics;
  bad[0].id = 999;
  for (CachePolicy policy : AllCachePolicies()) {
    EXPECT_FALSE(SelectSchedulesWithPolicy(policy, t.dag, bad).ok());
  }
}

TEST(CachePolicyTest, PoliciesRunOnRealWorkloads) {
  minispark::RunOptions o;
  o.instrument = true;
  o.noise_sigma = 0.0;
  o.straggler_prob = 0.0;
  for (const auto& w : workloads::AllWorkloads()) {
    minispark::Engine engine(o);
    auto run = engine.RunDefault(w.make(minispark::AppParams{1500, 400, 3}),
                                 minispark::TrainingNode());
    ASSERT_TRUE(run.ok()) << w.name;
    const MergedDag dag = core::BuildMergedDag(*run->profile);
    auto metrics = core::DeriveDatasetMetrics(dag, *run->profile);
    ASSERT_TRUE(metrics.ok());
    for (CachePolicy policy : AllCachePolicies()) {
      auto schedules = SelectSchedulesWithPolicy(policy, dag, *metrics, 4);
      ASSERT_TRUE(schedules.ok()) << w.name << " " << CachePolicyName(policy);
      EXPECT_FALSE(schedules->empty())
          << w.name << " " << CachePolicyName(policy);
    }
  }
}

}  // namespace
}  // namespace juggler::baselines
