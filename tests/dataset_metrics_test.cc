#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/units.h"
#include "core/dataset_metrics.h"
#include "minispark/engine.h"
#include "test_models.h"
#include "workloads/workloads.h"

namespace juggler::core {
namespace {

using minispark::CacheOp;
using minispark::CachePlan;
using minispark::ClusterConfig;
using minispark::DagBuilder;
using minispark::Engine;
using minispark::PaperCluster;
using minispark::RunOptions;
using minispark::TrainingNode;

/// Instrumented deterministic run returning the profile.
std::shared_ptr<minispark::ProfilingDb> Profile(
    const minispark::Application& app, int machines = 1,
    const CachePlan& plan = CachePlan{}) {
  RunOptions o;
  o.instrument = true;
  o.noise_sigma = 0.0;
  o.straggler_prob = 0.0;
  Engine engine(o);
  auto r = engine.Run(app, PaperCluster(machines), plan);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->profile;
}

/// Stage 1's derivation: the merged DAG, then the metrics over it.
StatusOr<std::vector<DatasetMetric>> Derive(const minispark::ProfilingDb& db) {
  return DeriveDatasetMetrics(BuildMergedDag(db), db);
}

minispark::Application ChainApp(int iters) {
  DagBuilder b("chain");
  const auto src = b.AddSource("src", MiB(64), 4);
  const auto parsed = b.AddNarrow("parsed", {src}, MiB(64), 20000.0);
  const auto labeled = b.AddNarrow("labeled", {parsed}, MiB(32), 1000.0);
  for (int i = 0; i < iters; ++i) {
    const auto m = b.AddNarrow("m" + std::to_string(i), {labeled}, MiB(1), 400.0);
    const auto a = b.AddWide("a" + std::to_string(i), {m}, 1024, 10.0, 1);
    b.AddJob("it" + std::to_string(i), a, 1024);
  }
  return std::move(b).Build();
}

TEST(MergedDagTest, ReconstructedFromProfile) {
  const auto app = ChainApp(3);
  const auto profile = Profile(app);
  const MergedDag dag = BuildMergedDag(*profile);
  ASSERT_EQ(dag.num_datasets(), app.num_datasets());
  EXPECT_EQ(dag.job_targets.size(), app.jobs.size());
  // Children of "labeled" (id 2) are the three iteration maps.
  EXPECT_EQ(dag.children[2].size(), 3u);
}

TEST(MergedDagTest, IsDescendant) {
  const auto dag = BuildMergedDag(*Profile(ChainApp(2)));
  EXPECT_TRUE(dag.IsDescendant(0, 2));
  EXPECT_TRUE(dag.IsDescendant(1, 2));
  EXPECT_FALSE(dag.IsDescendant(2, 1));
  EXPECT_FALSE(dag.IsDescendant(2, 2));
}

TEST(MergedDagTest, FirstJobComputing) {
  const auto dag = BuildMergedDag(*Profile(ChainApp(2)));
  EXPECT_EQ(dag.FirstJobComputing(0), 0);
  EXPECT_EQ(dag.FirstJobComputing(2), 0);
}

TEST(MergedDagTest, OnlyUsedVia) {
  // In every job, `parsed` (1) is only reachable through `labeled` (2).
  const auto dag = BuildMergedDag(*Profile(ChainApp(2)));
  for (size_t j = 0; j < dag.job_targets.size(); ++j) {
    EXPECT_TRUE(dag.OnlyUsedVia(static_cast<int>(j), 1, 2));
  }
  // But `labeled` is not "only via" a single iteration map in job 0.
  EXPECT_FALSE(dag.OnlyUsedVia(1, 2, 3));  // Job 1 uses labeled via m1, not m0.
}

TEST(DeriveMetricsTest, ComputationCountsMatchStructure) {
  const auto app = ChainApp(5);
  auto metrics = Derive(*Profile(app));
  ASSERT_TRUE(metrics.ok());
  const auto counts = minispark::ComputationCounts(app);
  for (const auto& m : *metrics) {
    EXPECT_EQ(m.computations, counts[static_cast<size_t>(m.id)])
        << "dataset " << m.name;
  }
  // labeled computed once per iteration.
  EXPECT_EQ((*metrics)[2].computations, 5);
}

TEST(DeriveMetricsTest, SizesMatchDatasetBytes) {
  const auto app = ChainApp(3);
  const auto profile = Profile(app);
  auto metrics = Derive(*profile);
  auto sizes = MeasureDatasetSizes(*profile);
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(sizes.ok());
  ASSERT_EQ(sizes->size(), metrics->size());
  for (const auto& m : *metrics) {
    EXPECT_NEAR(m.size_bytes, app.dataset(m.id).bytes,
                0.01 * app.dataset(m.id).bytes + 1)
        << "dataset " << m.name;
    EXPECT_EQ(m.size_bytes, (*sizes)[static_cast<size_t>(m.id)]) << m.name;
  }
}

TEST(DeriveMetricsTest, ComputeTimeOrdering) {
  // parsed (20 s CPU) must dwarf labeled (1 s) which dwarfs the maps.
  auto metrics = Derive(*Profile(ChainApp(3)));
  ASSERT_TRUE(metrics.ok());
  const auto& m = *metrics;
  EXPECT_GT(m[1].compute_time_ms, 5 * m[2].compute_time_ms);
  EXPECT_GT(m[2].compute_time_ms, m[3].compute_time_ms);
  for (const auto& metric : m) EXPECT_GE(metric.compute_time_ms, 0.0);
}

TEST(DeriveMetricsTest, NarrowEtApproximatesComputeCost) {
  // One job, one stage: ET of `parsed` should be near its per-wave compute
  // share: 20 s CPU over 4 partitions on 4 cores = 1 wave of 5 s tasks.
  DagBuilder b("small");
  const auto src = b.AddSource("src", MiB(4), 4);
  const auto parsed = b.AddNarrow("parsed", {src}, MiB(4), 20000.0);
  b.AddJob("count", parsed, 64);
  auto metrics = Derive(*Profile(std::move(b).Build()));
  ASSERT_TRUE(metrics.ok());
  EXPECT_NEAR((*metrics)[1].compute_time_ms, 5000.0, 500.0);
}

TEST(DeriveMetricsTest, WavesMultiplyExecutionTime) {
  // 8 partitions on 4 cores = 2 waves: ET doubles relative to 1 wave.
  auto make = [](int partitions) {
    DagBuilder b("waves");
    const auto src = b.AddSource("src", MiB(8), partitions);
    const auto parsed = b.AddNarrow("parsed", {src}, MiB(8), 20000.0);
    b.AddJob("count", parsed, 64);
    return std::move(b).Build();
  };
  const auto et = [&](int partitions) {
    auto metrics = Derive(*Profile(make(partitions)));
    EXPECT_TRUE(metrics.ok());
    return (*metrics)[1].compute_time_ms;
  };
  // Same total CPU split over 4 vs 8 partitions: per-task time halves but
  // waves double, so ET stays roughly constant.
  EXPECT_NEAR(et(8) / et(4), 1.0, 0.25);
}

TEST(DeriveMetricsTest, CacheHitsExcludedFromTiming) {
  const auto app = ChainApp(6);
  const CachePlan plan{{CacheOp::Persist(2)}};
  auto cached_metrics = Derive(*Profile(app, 4, plan));
  auto plain_metrics = Derive(*Profile(app, 4));
  ASSERT_TRUE(cached_metrics.ok());
  ASSERT_TRUE(plain_metrics.ok());
  // labeled's computation time estimate should be similar whether or not
  // later reads were cache hits (hits don't dilute the ET average).
  const double cached_et = (*cached_metrics)[2].compute_time_ms;
  const double plain_et = (*plain_metrics)[2].compute_time_ms;
  EXPECT_NEAR(cached_et / plain_et, 1.0, 0.3);
}

TEST(DeriveMetricsTest, WideDatasetSumsWriteAndReadParts) {
  auto metrics = Derive(*Profile(ChainApp(1)));
  ASSERT_TRUE(metrics.ok());
  // The wide aggregation (id 4) has nonzero ET from write+read parts.
  EXPECT_GT((*metrics)[4].compute_time_ms, 0.0);
}

TEST(DeriveMetricsTest, EmptyProfileRejected) {
  minispark::ProfilingDb db;
  EXPECT_FALSE(Derive(db).ok());
}

TEST(DeriveMetricsTest, DagOfAnotherProfileRejected) {
  const auto profile = Profile(ChainApp(3));
  EXPECT_FALSE(
      DeriveDatasetMetrics(BuildMergedDag(*Profile(ChainApp(1))), *profile)
          .ok());
}

TEST(MeasureSizesTest, UnknownDatasetRejected) {
  minispark::ProfilingDb db;
  minispark::DatasetRecord src;
  src.id = 0;
  db.AddDataset(src);
  minispark::TransformRecord record;
  record.dataset = 1;  // Not in the profile's dataset list.
  db.AddTransform(record);
  EXPECT_EQ(MeasureDatasetSizes(db).status().code(), StatusCode::kInternal);
}

TEST(DeriveMetricsTest, WorksForAllFiveWorkloads) {
  for (const auto& w : workloads::AllWorkloads()) {
    const minispark::AppParams small{1500, 400, 2};
    const auto app = w.make(small);
    auto metrics = Derive(*Profile(app));
    ASSERT_TRUE(metrics.ok()) << w.name;
    EXPECT_EQ(metrics->size(), static_cast<size_t>(app.num_datasets()));
    int intermediates = 0;
    for (const auto& m : *metrics) {
      if (m.computations > 1) ++intermediates;
    }
    EXPECT_GT(intermediates, 0) << w.name;
  }
}

/// A narrow chain whose last eight datasets before the terminal cost
/// nothing, so each of their records starts when the next one does. Every
/// task has 17 records: a sort by start time that does not keep ties in
/// evaluation order moves the terminal off the last position.
minispark::Application ZeroCostTailApp() {
  DagBuilder b("zero-cost-tail");
  DatasetId d = b.AddSource("src", MiB(16), 4);
  for (int i = 0; i < 7; ++i) {
    d = b.AddNarrow("work" + std::to_string(i), {d}, MiB(16), 400.0);
  }
  for (int i = 0; i < 8; ++i) {
    d = b.AddNarrow("free" + std::to_string(i), {d}, MiB(16), 0.0);
  }
  d = b.AddNarrow("terminal", {d}, MiB(16), 800.0);
  b.AddJob("count", d, 64);
  return std::move(b).Build();
}

TEST(DeriveMetricsTest, ZeroCostRecordsKeepEvaluationOrder) {
  const auto app = ZeroCostTailApp();
  auto metrics = Derive(*Profile(app));
  ASSERT_TRUE(metrics.ok());
  const auto& m = *metrics;
  ASSERT_EQ(m.size(), 17u);
  for (int id = 8; id < 16; ++id) {
    EXPECT_EQ(m[static_cast<size_t>(id)].compute_time_ms, 0.0)
        << m[static_cast<size_t>(id)].name;
  }
  // 800 ms over 4 partitions, one wave on the training node's cores.
  EXPECT_NEAR(m[16].compute_time_ms, 200.0, 20.0);
}

void AddMetrics(const minispark::ProfilingDb& db, test::Fnv1a* digest) {
  auto metrics = Derive(db);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  if (!metrics.ok()) return;
  for (const DatasetMetric& m : *metrics) {
    digest->AddWord(static_cast<uint64_t>(m.id));
    digest->AddWord(static_cast<uint64_t>(m.computations));
    digest->AddWord(std::bit_cast<uint64_t>(m.size_bytes));
    digest->AddWord(std::bit_cast<uint64_t>(m.compute_time_ms));
  }
}

// The profiles training derives metrics from: each app's stage-1 sample run
// and its nine stage-2 size-grid runs (default RunOptions, so with task
// noise and stragglers), plus one run whose faults retry tasks, launch
// speculative copies and lose executors, so that a parent stage is
// re-executed: its records are emitted before those of the child stage
// that found its shuffle output gone, and its tasks carry several task
// records each. The digest was recorded from the map-based derivation.
TEST(DatasetMetricsGoldenTest, TrainingProfilesAreBitIdentical) {
  test::Fnv1a digest;
  RunOptions options;
  options.instrument = true;
  for (const auto& w : workloads::AllWorkloads()) {
    const auto sample =
        Engine(options).RunDefault(w.make({2000, 500, 3}), TrainingNode());
    ASSERT_TRUE(sample.ok()) << w.name;
    AddMetrics(*sample->profile, &digest);
    RunOptions grid_options = options;
    for (double e : {1000.0, 2000.0, 4000.0}) {
      for (double f : {250.0, 500.0, 1000.0}) {
        const auto run = Engine(grid_options)
                             .RunDefault(w.make({e, f, 2}), TrainingNode());
        ASSERT_TRUE(run.ok()) << w.name;
        AddMetrics(*run->profile, &digest);
        grid_options.seed += 1;
      }
    }
  }

  RunOptions faulty = options;
  faulty.faults.seed = 7;
  faulty.faults.task_failure_prob = 0.05;
  faulty.faults.executor_loss_prob = 0.03;
  faulty.faults.straggler_prob = 0.05;
  faulty.faults.speculation = true;
  const auto w = workloads::GetWorkload("svm").value();
  const auto run = Engine(faulty).RunDefault(w.make(w.paper_params),
                                             PaperCluster(4));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->stages_reexecuted, 0);
  EXPECT_GT(run->tasks_retried, 0);
  EXPECT_GT(run->speculative_launched, 0);
  EXPECT_GT(run->executors_lost, 0);
  AddMetrics(*run->profile, &digest);

  EXPECT_EQ(digest.value(), 0x137ae9cc4ece7fddULL);
}

}  // namespace
}  // namespace juggler::core
