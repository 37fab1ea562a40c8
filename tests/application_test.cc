#include <gtest/gtest.h>

#include "common/units.h"
#include "minispark/application.h"

namespace juggler::minispark {
namespace {

/// A small LOR-like application mirroring the paper's Figure 4 structure:
///   D0 -> D1 -> D2 -> D3(count probe)
///                `--> D4 (scaled; read by iterative jobs)
/// jobs: count(D3), then `iters` gradient jobs over a per-iteration tail,
/// then one eval job over D1.
Application FigureFourApp(int iters) {
  DagBuilder b("fig4");
  const DatasetId d0 = b.AddSource("d0", MiB(76), 4);
  const DatasetId d1 = b.AddNarrow("d1", {d0}, MiB(76), 10);
  const DatasetId d2 = b.AddNarrow("d2", {d1}, MiB(46), 14);
  const DatasetId d3 = b.AddNarrow("d3", {d2}, 64, 1);
  const DatasetId d4 = b.AddNarrow("d4", {d2}, MiB(46), 40);
  const DatasetId ev = b.AddNarrow("eval", {d1}, 64, 5);
  b.AddJob("count", d3, 64);
  for (int i = 0; i < iters; ++i) {
    const DatasetId g = b.AddWide("grad" + std::to_string(i), {d4}, 64, 2, 1);
    b.AddJob("iter" + std::to_string(i), g, 64);
  }
  b.AddJob("eval", ev, 64);
  return std::move(b).Build();
}

TEST(DagBuilderTest, AssignsDenseIds) {
  const Application app = FigureFourApp(2);
  for (int i = 0; i < app.num_datasets(); ++i) {
    EXPECT_EQ(app.dataset(i).id, i);
  }
  EXPECT_TRUE(Validate(app).ok());
}

TEST(DagBuilderTest, NarrowInheritsPartitions) {
  const Application app = FigureFourApp(1);
  EXPECT_EQ(app.dataset(1).num_partitions, 4);
  EXPECT_EQ(app.dataset(2).num_partitions, 4);
}

TEST(DagBuilderTest, WideCanRepartition) {
  DagBuilder b("w");
  const DatasetId s = b.AddSource("s", MiB(10), 8);
  const DatasetId w = b.AddWide("w", {s}, MiB(1), 5, 2);
  b.AddJob("j", w);
  EXPECT_EQ(b.app().dataset(w).num_partitions, 2);
  // Partitions == 0 inherits from parent.
  const DatasetId w2 = b.AddWide("w2", {s}, MiB(1), 5, 0);
  EXPECT_EQ(b.app().dataset(w2).num_partitions, 8);
}

TEST(ValidateTest, RejectsJoblessApp) {
  DagBuilder b("x");
  b.AddSource("s", 10, 1);
  EXPECT_FALSE(Validate(b.app()).ok());
}

TEST(ValidateTest, RejectsBadJobTarget) {
  DagBuilder b("x");
  b.AddSource("s", 10, 1);
  b.AddJob("j", 7);
  EXPECT_EQ(Validate(b.app()).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, RejectsBadDefaultPlan) {
  DagBuilder b("x");
  const DatasetId s = b.AddSource("s", 10, 1);
  b.AddJob("j", s);
  b.SetDefaultPlan(CachePlan{{CacheOp::Persist(42)}});
  EXPECT_FALSE(Validate(b.app()).ok());
}

TEST(ValidateTest, RejectsManuallyCorruptedDataset) {
  Application app = FigureFourApp(1);
  app.datasets[2].num_partitions = 0;
  EXPECT_FALSE(Validate(app).ok());
  app = FigureFourApp(1);
  app.datasets[2].bytes = -5;
  EXPECT_FALSE(Validate(app).ok());
  app = FigureFourApp(1);
  app.datasets[2].parents = {5};  // Parent id >= own id.
  EXPECT_FALSE(Validate(app).ok());
  app = FigureFourApp(1);
  app.datasets[0].parents = {0};  // Source with parents.
  EXPECT_FALSE(Validate(app).ok());
}

TEST(ComputationCountsTest, MatchesFigureFourStructure) {
  // With 4 iterations: D4 computed 4x; D2 = count + 4 iters = 5;
  // D1 = D2's 5 + eval = 6; D0 = 6.
  const Application app = FigureFourApp(4);
  const auto counts = ComputationCounts(app);
  EXPECT_EQ(counts[0], 6);
  EXPECT_EQ(counts[1], 6);
  EXPECT_EQ(counts[2], 5);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(counts[4], 4);
}

TEST(ComputationCountsTest, DiamondCountsPaths) {
  // target <- m1 <- s, target <- m2 <- s: s computed twice per job.
  DagBuilder b("diamond");
  const DatasetId s = b.AddSource("s", 10, 1);
  const DatasetId m1 = b.AddNarrow("m1", {s}, 10, 1);
  const DatasetId m2 = b.AddNarrow("m2", {s}, 10, 1);
  const DatasetId t = b.AddNarrow("t", {m1, m2}, 10, 1);
  b.AddJob("j", t);
  const auto counts = ComputationCounts(b.app());
  EXPECT_EQ(counts[static_cast<size_t>(s)], 2);
  EXPECT_EQ(counts[static_cast<size_t>(t)], 1);
}

}  // namespace
}  // namespace juggler::minispark
