#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "minispark/engine.h"
#include "test_models.h"
#include "workloads/workloads.h"

namespace juggler::minispark {
namespace {

RunOptions Deterministic() {
  RunOptions o;
  o.noise_sigma = 0.0;
  o.straggler_prob = 0.0;
  return o;
}

/// An iterative app where one narrow dataset ("hot", 400 MB) is recomputed
/// by each of `iters` jobs unless cached.
Application IterativeApp(int iters, double hot_bytes = MiB(400)) {
  DagBuilder b("iterative");
  const DatasetId src = b.AddSource("src", MiB(256), 64);
  const DatasetId hot = b.AddNarrow("hot", {src}, hot_bytes, 8000.0);
  for (int i = 0; i < iters; ++i) {
    const DatasetId m = b.AddNarrow("m" + std::to_string(i), {hot}, MiB(1), 100.0);
    const DatasetId a = b.AddWide("a" + std::to_string(i), {m}, 1024, 1.0, 1);
    b.AddJob("iter" + std::to_string(i), a, 1024);
  }
  return std::move(b).Build();
}

ClusterConfig SmallCluster(int machines, double heap = GiB(2)) {
  ClusterConfig c = PaperCluster(machines);
  c.executor_memory_bytes = heap;
  return c;
}

TEST(EngineTest, RunsAndReportsDuration) {
  Engine engine(Deterministic());
  auto r = engine.Run(IterativeApp(3), SmallCluster(2), CachePlan{});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->duration_ms, 0);
  EXPECT_EQ(r->machines, 2);
  EXPECT_NEAR(r->CostMachineMinutes(), 2 * ToMinutes(r->duration_ms), 1e-9);
}

TEST(EngineTest, CachingReducesDuration) {
  Engine engine(Deterministic());
  const Application app = IterativeApp(6);
  auto uncached = engine.Run(app, SmallCluster(2), CachePlan{});
  auto cached = engine.Run(app, SmallCluster(2), CachePlan{{CacheOp::Persist(1)}});
  ASSERT_TRUE(uncached.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_LT(cached->duration_ms, 0.5 * uncached->duration_ms);
  EXPECT_GT(cached->cache_hits, 0);
  EXPECT_EQ(cached->cache_recomputes, 0);
}

TEST(EngineTest, MoreIterationsBenefitMoreFromCaching) {
  Engine engine(Deterministic());
  auto speedup = [&](int iters) {
    const Application app = IterativeApp(iters);
    const double u =
        engine.Run(app, SmallCluster(2), CachePlan{})->duration_ms;
    const double c =
        engine.Run(app, SmallCluster(2), CachePlan{{CacheOp::Persist(1)}})
            ->duration_ms;
    return u / c;
  };
  EXPECT_GT(speedup(10), speedup(2));
}

TEST(EngineTest, EvictionWhenDatasetExceedsMemory) {
  Engine engine(Deterministic());
  // 2 GiB heap -> M ~ 1 GiB; a 4 GiB hot dataset on one machine cannot fit.
  const Application app = IterativeApp(4, GiB(4));
  auto r = engine.Run(app, SmallCluster(1), CachePlan{{CacheOp::Persist(1)}});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->cache_recomputes, 0);
  const auto& stats = r->dataset_stats.at(1);
  EXPECT_GT(stats.distinct_evicted, 0);
  EXPECT_LT(r->FractionPartitionsNeverEvicted(), 1.0);
}

TEST(EngineTest, EnoughMachinesEliminateEviction) {
  Engine engine(Deterministic());
  const Application app = IterativeApp(4, GiB(4));
  auto r = engine.Run(app, SmallCluster(8), CachePlan{{CacheOp::Persist(1)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cache_recomputes, 0);
  EXPECT_DOUBLE_EQ(r->FractionPartitionsNeverEvicted(), 1.0);
}

TEST(EngineTest, DeterministicForSameSeed) {
  Engine a(RunOptions{}), b(RunOptions{});
  const Application app = IterativeApp(3);
  EXPECT_DOUBLE_EQ(a.Run(app, SmallCluster(2), CachePlan{})->duration_ms,
                   b.Run(app, SmallCluster(2), CachePlan{})->duration_ms);
}

TEST(EngineTest, NoiseVariesAcrossSeeds) {
  RunOptions o1;
  o1.seed = 1;
  RunOptions o2;
  o2.seed = 2;
  const Application app = IterativeApp(3);
  const double d1 = Engine(o1).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  const double d2 = Engine(o2).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  EXPECT_NE(d1, d2);
  EXPECT_NEAR(d1 / d2, 1.0, 0.2);  // Same order of magnitude.
}

TEST(EngineTest, MoreMachinesReduceTimeWithoutCaching) {
  Engine engine(Deterministic());
  const Application app = IterativeApp(4);
  const double t2 = engine.Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  const double t8 = engine.Run(app, SmallCluster(8), CachePlan{})->duration_ms;
  EXPECT_LT(t8, t2);
}

TEST(EngineTest, RunDefaultUsesDeveloperPlan) {
  Engine engine(Deterministic());
  Application app = IterativeApp(6);
  app.default_plan = CachePlan{{CacheOp::Persist(1)}};
  auto with_default = engine.RunDefault(app, SmallCluster(2));
  ASSERT_TRUE(with_default.ok());
  EXPECT_GT(with_default->cache_hits, 0);
}

TEST(EngineTest, UnpersistFreesMemoryForSuccessor) {
  // Two hot datasets, together over capacity; chained jobs use hot1 first,
  // then only hot2. With u(hot1) before p(hot2), hot2 fits.
  DagBuilder b("unpersist");
  const DatasetId src = b.AddSource("src", MiB(64), 4);
  const DatasetId hot1 = b.AddNarrow("hot1", {src}, MiB(700), 5000.0);
  const DatasetId hot2 = b.AddNarrow("hot2", {hot1}, MiB(700), 5000.0);
  for (int i = 0; i < 3; ++i) {
    const DatasetId m = b.AddNarrow("m" + std::to_string(i), {hot1}, 1024, 1.0);
    b.AddJob("hot1-job" + std::to_string(i), m);
  }
  for (int i = 0; i < 3; ++i) {
    const DatasetId m = b.AddNarrow("n" + std::to_string(i), {hot2}, 1024, 1.0);
    b.AddJob("hot2-job" + std::to_string(i), m);
  }
  const Application app = std::move(b).Build();

  Engine engine(Deterministic());
  // M ~ 1.03 GiB: the two 700 MB datasets cannot coexist.
  const ClusterConfig cluster = SmallCluster(1);
  auto both = engine.Run(
      app, cluster, CachePlan{{CacheOp::Persist(hot1), CacheOp::Persist(hot2)}});
  auto with_unpersist = engine.Run(
      app, cluster,
      CachePlan{{CacheOp::Persist(hot1), CacheOp::Unpersist(hot1),
                 CacheOp::Persist(hot2)}});
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(with_unpersist.ok());
  EXPECT_GT(both->blocks_evicted + both->store_rejections, 0);
  EXPECT_EQ(with_unpersist->blocks_evicted + with_unpersist->store_rejections, 0);
  EXPECT_LE(with_unpersist->duration_ms, both->duration_ms);
}

TEST(EngineTest, InstrumentationProducesProfile) {
  RunOptions o = Deterministic();
  o.instrument = true;
  Engine engine(o);
  const Application app = IterativeApp(2);
  auto r = engine.Run(app, SmallCluster(2), CachePlan{});
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->profile, nullptr);
  const auto& db = *r->profile;
  EXPECT_EQ(db.jobs().size(), app.jobs.size());
  EXPECT_EQ(db.datasets().size(), static_cast<size_t>(app.num_datasets()));
  EXPECT_EQ(db.machines(), 2);
  EXPECT_FALSE(db.tasks().empty());
  EXPECT_FALSE(db.transforms().empty());
  // Every transform record belongs to a recorded task and nests within it.
  for (const auto& t : db.transforms()) {
    bool found = false;
    for (const auto& task : db.tasks()) {
      if (task.job == t.job && task.stage == t.stage &&
          task.task_index == t.task_index) {
        EXPECT_GE(t.start_ms, task.start_ms - 1e-6);
        EXPECT_LE(t.finish_ms, task.finish_ms + 1e-6);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(EngineTest, InstrumentationAddsOverhead) {
  RunOptions plain = Deterministic();
  RunOptions instr = Deterministic();
  instr.instrument = true;
  const Application app = IterativeApp(3);
  const double t_plain =
      Engine(plain).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  const double t_instr =
      Engine(instr).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  EXPECT_GT(t_instr, t_plain);
  EXPECT_LT(t_instr, 1.2 * t_plain);
}

TEST(EngineTest, WideShuffleRecordsWriteAndRead) {
  RunOptions o = Deterministic();
  o.instrument = true;
  Engine engine(o);
  const Application app = IterativeApp(1);
  auto r = engine.Run(app, SmallCluster(1), CachePlan{});
  ASSERT_TRUE(r.ok());
  bool saw_write = false, saw_read = false;
  for (const auto& t : r->profile->transforms()) {
    if (t.part == TransformPart::kShuffleWrite) saw_write = true;
    if (t.part == TransformPart::kShuffleRead) saw_read = true;
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
}

TEST(EngineTest, RejectsInvalidCluster) {
  Engine engine(Deterministic());
  EXPECT_FALSE(engine.Run(IterativeApp(1), SmallCluster(0), CachePlan{}).ok());
}

TEST(EngineTest, RejectsPlanWithUnknownDataset) {
  Engine engine(Deterministic());
  EXPECT_FALSE(engine
                   .Run(IterativeApp(1), SmallCluster(1),
                        CachePlan{{CacheOp::Persist(999)}})
                   .ok());
}

TEST(EngineTest, RejectsInvalidApplication) {
  Engine engine(Deterministic());
  Application app = IterativeApp(1);
  app.jobs.clear();
  EXPECT_FALSE(engine.Run(app, SmallCluster(1), CachePlan{}).ok());
}

TEST(EngineTest, StragglersLengthenRuns) {
  RunOptions calm = Deterministic();
  RunOptions stormy = Deterministic();
  stormy.straggler_prob = 0.5;
  stormy.straggler_factor = 5.0;
  const Application app = IterativeApp(4);
  const double t_calm =
      Engine(calm).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  const double t_storm =
      Engine(stormy).Run(app, SmallCluster(2), CachePlan{})->duration_ms;
  EXPECT_GT(t_storm, 1.5 * t_calm);
}

TEST(EngineTest, SvmAreaShape) {
  // The Figure 2 sanity check at reduced scale: with the developer cache,
  // cost falls through area A, bottoms out, then grows in area B.
  auto w = workloads::GetWorkload("svm");
  ASSERT_TRUE(w.ok());
  minispark::AppParams p{8000, 8000, 20};
  Engine engine(Deterministic());
  std::vector<double> costs;
  for (int m = 1; m <= 8; ++m) {
    ClusterConfig c = PaperCluster(m);
    c.executor_memory_bytes = GiB(2);
    auto r = engine.RunDefault(w->make(p), c);
    ASSERT_TRUE(r.ok());
    costs.push_back(r->CostMachineMinutes());
  }
  const auto min_it = std::min_element(costs.begin(), costs.end());
  const size_t min_idx = static_cast<size_t>(min_it - costs.begin());
  EXPECT_GT(min_idx, 0u);           // Not cheapest on one machine (area A).
  EXPECT_LT(min_idx, costs.size() - 1);  // Not cheapest at max (area B).
  EXPECT_GT(costs.front(), 1.5 * *min_it);
}

/// FNV-1a over every reported field, in order. Doubles enter by bit
/// pattern, so "identical" means identical to the last bit.
class Digest {
 public:
  void Add(uint64_t v) { fnv_.AddWord(v); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  void Add(TransformKind k) { Add(static_cast<int>(k)); }
  void Add(TransformPart p) { Add(static_cast<int>(p)); }

  void Add(const StatusOr<RunResult>& run) {
    Add(static_cast<int>(run.status().code()));
    if (!run.ok()) {
      Add(run.status().message());
      return;
    }
    const RunResult& r = *run;
    Add(r.app_name);
    Add(r.machines);
    Add(r.duration_ms);
    Add(r.cache_hits);
    Add(r.cache_recomputes);
    Add(r.blocks_evicted);
    Add(r.store_rejections);
    Add(r.peak_execution_bytes);
    Add(r.tasks_retried);
    Add(r.stages_reexecuted);
    Add(r.executors_lost);
    Add(r.partitions_lost);
    Add(r.partitions_recomputed_after_loss);
    Add(r.speculative_launched);
    Add(r.speculative_wins);
    Add(static_cast<uint64_t>(r.dataset_stats.size()));
    for (const auto& [id, s] : r.dataset_stats) {
      Add(id);
      Add(s.hits);
      Add(s.recomputes);
      Add(s.stored);
      Add(s.distinct_cached);
      Add(s.distinct_evicted);
      Add(s.resident_at_end);
      Add(s.persisted_at_end);
      Add(s.lost);
      Add(s.recomputed_after_loss);
    }
    Add(r.profile != nullptr);
    if (r.profile == nullptr) return;
    const ProfilingDb& db = *r.profile;
    Add(db.machines());
    Add(db.cores_per_machine());
    Add(static_cast<uint64_t>(db.transforms().size()));
    for (const TransformRecord& t : db.transforms()) {
      Add(t.job);
      Add(t.stage);
      Add(t.task_index);
      Add(t.dataset);
      Add(t.part);
      Add(t.start_ms);
      Add(t.finish_ms);
      Add(t.partition_bytes);
      Add(t.from_cache);
    }
    Add(static_cast<uint64_t>(db.tasks().size()));
    for (const TaskRecord& t : db.tasks()) {
      Add(t.job);
      Add(t.stage);
      Add(t.task_index);
      Add(t.machine);
      Add(t.start_ms);
      Add(t.finish_ms);
      Add(t.attempt);
      Add(t.speculative);
      Add(t.failed);
    }
    Add(static_cast<uint64_t>(db.stages().size()));
    for (const StageRecord& s : db.stages()) {
      Add(s.job);
      Add(s.stage);
      Add(s.terminal);
      Add(s.num_tasks);
    }
    Add(static_cast<uint64_t>(db.jobs().size()));
    for (const JobRecord& j : db.jobs()) {
      Add(j.job);
      Add(j.name);
      Add(j.target);
      Add(j.start_ms);
      Add(j.finish_ms);
    }
    Add(static_cast<uint64_t>(db.datasets().size()));
    for (const DatasetRecord& d : db.datasets()) {
      Add(d.id);
      Add(d.name);
      Add(d.kind);
      Add(static_cast<uint64_t>(d.parents.size()));
      for (DatasetId p : d.parents) Add(p);
      Add(d.num_partitions);
    }
  }

  uint64_t value() const { return fnv_.value(); }

 private:
  test::Fnv1a fnv_;
};

/// Totals over a grid of runs, to show that the digest covers the paths it
/// is meant to pin (eviction, loss recovery, retries, speculation).
struct Coverage {
  int64_t ok_runs = 0;
  int64_t evicted = 0;
  int64_t recomputes = 0;
  int64_t lost = 0;
  int64_t recomputed_after_loss = 0;
  int64_t retried = 0;
  int64_t reexecuted = 0;
  int64_t speculative_wins = 0;

  void Add(const StatusOr<RunResult>& run) {
    if (!run.ok()) return;
    ++ok_runs;
    evicted += run->blocks_evicted;
    recomputes += run->cache_recomputes;
    lost += run->partitions_lost;
    recomputed_after_loss += run->partitions_recomputed_after_loss;
    retried += run->tasks_retried;
    reexecuted += run->stages_reexecuted;
    speculative_wins += run->speculative_wins;
  }
};

/// Instrumented (unless `instrument` is false), with the default task noise
/// and stragglers; `faulty` adds every kind of scheduled fault the engine
/// recovers from.
RunOptions GoldenOptions(bool faulty, bool instrument = true) {
  RunOptions o;
  o.instrument = instrument;
  if (faulty) {
    o.faults.seed = 7;
    o.faults.task_failure_prob = 0.05;
    o.faults.executor_loss_prob = 0.03;
    o.faults.straggler_prob = 0.05;
    o.faults.speculation = true;
  }
  return o;
}

/// A narrow dataset inherits only its first parent's partition count, so
/// "joined" (8 partitions) asks its 3- and 2-partition parents for
/// partitions they do not have. Every one of them is persisted.
Application UnevenParentsApp() {
  DagBuilder b("uneven-parents");
  const DatasetId big = b.AddSource("big", MiB(512), 8);
  const DatasetId small = b.AddSource("small", MiB(96), 3);
  const DatasetId shuffled = b.AddWide("shuffled", {small}, MiB(64), 50.0, 2);
  const DatasetId joined =
      b.AddNarrow("joined", {big, small, shuffled}, MiB(600), 400.0, MiB(16));
  for (int i = 0; i < 5; ++i) {
    const DatasetId use =
        b.AddNarrow("use" + std::to_string(i), {joined}, MiB(1), 10.0);
    const DatasetId agg =
        b.AddWide("agg" + std::to_string(i), {use}, 1024, 1.0, 1);
    b.AddJob("iter" + std::to_string(i), agg, 1024);
  }
  return std::move(b).Build();
}

// The digests below were recorded from the engine before its per-run state
// became dense. Any change to what a run reports changes them.
TEST(EngineGoldenTest, WorkloadGridIsBitIdentical) {
  Digest digest;
  Coverage coverage;
  for (const auto& w : workloads::AllWorkloads()) {
    const Application app = w.make(w.paper_params);
    for (const CachePlan& plan : {app.default_plan, CachePlan{}}) {
      for (int machines : {1, 4}) {
        for (bool faulty : {false, true}) {
          const auto run = Engine(GoldenOptions(faulty))
                               .Run(app, PaperCluster(machines), plan);
          digest.Add(run);
          coverage.Add(run);
        }
      }
    }
  }
  EXPECT_EQ(coverage.ok_runs, 40);
  EXPECT_GT(coverage.evicted, 0);
  EXPECT_GT(coverage.recomputes, 0);
  EXPECT_GT(coverage.lost, 0);
  EXPECT_GT(coverage.recomputed_after_loss, 0);
  EXPECT_GT(coverage.retried, 0);
  EXPECT_GT(coverage.reexecuted, 0);
  EXPECT_GT(coverage.speculative_wins, 0);
  EXPECT_EQ(digest.value(), 0xd99f3aa169f1dc5bULL);
}

// The same grid on the path the training stages take: no profile, default
// RunOptions otherwise. Nothing is recorded per piece here, so this pins the
// task durations the engine sums without the profiler's records.
TEST(EngineGoldenTest, UninstrumentedGridIsBitIdentical) {
  Digest digest;
  Coverage coverage;
  for (const auto& w : workloads::AllWorkloads()) {
    const Application app = w.make(w.paper_params);
    for (const CachePlan& plan : {app.default_plan, CachePlan{}}) {
      for (int machines : {1, 4}) {
        for (bool faulty : {false, true}) {
          const auto run =
              Engine(GoldenOptions(faulty, /*instrument=*/false))
                  .Run(app, PaperCluster(machines), plan);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          EXPECT_EQ(run->profile, nullptr);
          digest.Add(run);
          coverage.Add(run);
        }
      }
    }
  }
  EXPECT_EQ(coverage.ok_runs, 40);
  EXPECT_GT(coverage.evicted, 0);
  EXPECT_GT(coverage.recomputes, 0);
  EXPECT_GT(coverage.lost, 0);
  EXPECT_GT(coverage.retried, 0);
  EXPECT_GT(coverage.speculative_wins, 0);
  EXPECT_EQ(digest.value(), 0xa1c891de6a54e19aULL);
}

TEST(EngineGoldenTest, UnevenParentPartitionCountsAreBitIdentical) {
  const Application app = UnevenParentsApp();
  const CachePlan keep_all{{CacheOp::Persist(1), CacheOp::Persist(2),
                            CacheOp::Persist(3)}};
  const CachePlan drop_small{{CacheOp::Persist(1), CacheOp::Persist(2),
                              CacheOp::Unpersist(1), CacheOp::Persist(3)}};
  Digest digest;
  Coverage coverage;
  for (const CachePlan& plan : {keep_all, drop_small, CachePlan{}}) {
    for (int machines : {1, 4}) {
      for (bool faulty : {false, true}) {
        const auto run = Engine(GoldenOptions(faulty))
                             .Run(app, SmallCluster(machines, GiB(1)), plan);
        digest.Add(run);
        coverage.Add(run);
      }
    }
  }
  EXPECT_EQ(coverage.ok_runs, 12);
  EXPECT_GT(coverage.evicted, 0);
  EXPECT_GT(coverage.lost, 0);
  EXPECT_EQ(digest.value(), 0x8ff414b669cde583ULL);

  // The trap itself: "small" has 3 partitions, and all 8 of "joined"'s
  // partition indices were cached under its id.
  const auto run = Engine(GoldenOptions(false))
                       .Run(app, SmallCluster(1, GiB(1)), keep_all);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(app.dataset(1).num_partitions, 3);
  EXPECT_EQ(run->dataset_stats.at(1).distinct_cached, 8);
}

/// "x" (narrow, over a source) is pipelined both by the shuffle-map stage
/// under "w" and, through "y", by the final stage. The final stage's walk
/// reaches "w" (creating the map stage, whose walk visits "x") before it
/// reaches "x" through "y". `y_exec` is "y"'s execution memory per task.
Application SharedNarrowApp(double y_exec) {
  DagBuilder b("shared-narrow");
  const DatasetId src = b.AddSource("src", MiB(64), 4);
  const DatasetId x = b.AddNarrow("x", {src}, MiB(64), 100.0, MiB(512));
  const DatasetId w = b.AddWide("w", {x}, MiB(8), 10.0, 4);
  const DatasetId y = b.AddNarrow("y", {x}, MiB(8), 10.0, y_exec);
  const DatasetId r = b.AddNarrow("r", {y, w}, MiB(1), 1.0);
  b.AddJob("job", r, 1024);
  return std::move(b).Build();
}

// Each stage walks its own narrow chain: "x" is a member of the final stage
// too, so that stage reserves x's execution memory and spills as if "y"
// needed it itself. A walk that shared its visited marks with the map stage
// would drop "x" from the final stage and run it without the spill.
TEST(EngineTest, EachStageReservesTheMemoryOfEveryDatasetItPipelines) {
  const ClusterConfig cluster = SmallCluster(1, GiB(1));
  const auto shared = Engine(Deterministic())
                          .Run(SharedNarrowApp(0.0), cluster, CachePlan{});
  const auto own = Engine(Deterministic())
                       .Run(SharedNarrowApp(MiB(512)), cluster, CachePlan{});
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(shared->duration_ms, own->duration_ms);
  EXPECT_EQ(shared->peak_execution_bytes, own->peak_execution_bytes);
}

}  // namespace
}  // namespace juggler::minispark
