#include <gtest/gtest.h>

#include "core/juggler.h"
#include "core/machine_adaptation.h"
#include "math/stats.h"
#include "minispark/engine.h"
#include "test_models.h"
#include "workloads/workloads.h"

namespace juggler::core {
namespace {

using minispark::AppParams;
using minispark::ClusterConfig;
using minispark::PaperCluster;
using test::TrainSmall;

/// A faster instance family: double the bandwidths, half the overheads.
ClusterConfig FastMachineType() {
  ClusterConfig c = PaperCluster(1);
  c.cpu_speed = 2.0;
  c.disk_bandwidth *= 2.0;
  c.network_bandwidth *= 2.0;
  c.cache_bandwidth *= 2.0;
  c.task_overhead_ms /= 2.0;
  c.job_serial_ms /= 2.0;
  c.shuffle_latency_ms /= 2.0;
  return c;
}

TEST(MachineAdaptationTest, FasterMachinesGetScaleBelowOne) {
  const auto trained = TrainSmall("svm", /*iterations=*/10);
  const auto w = workloads::GetWorkload("svm").value();
  auto adaptation = AdaptTimeModelToMachineType(
      trained, w.make, FastMachineType(),
      {AppParams{6000, 1500, 10}, AppParams{12000, 3000, 10}},
      minispark::RunOptions{});
  ASSERT_TRUE(adaptation.ok()) << adaptation.status().ToString();
  EXPECT_EQ(adaptation->experiments, 2);
  EXPECT_GT(adaptation->training_machine_minutes, 0.0);
  EXPECT_LT(adaptation->time_scale, 1.0);
  EXPECT_GT(adaptation->time_scale, 0.2);
}

TEST(MachineAdaptationTest, AdaptedPredictionBeatsUnadapted) {
  const auto trained = TrainSmall("svm", /*iterations=*/10);
  const auto w = workloads::GetWorkload("svm").value();
  const ClusterConfig fast = FastMachineType();
  auto adaptation = AdaptTimeModelToMachineType(
      trained, w.make, fast,
      {AppParams{6000, 1500, 10}, AppParams{12000, 3000, 10}},
      minispark::RunOptions{});
  ASSERT_TRUE(adaptation.ok());

  // Validate at unseen parameters on the new machine type.
  const AppParams test{14000, 3500, 10};
  auto recs = trained.RecommendAll(test, fast);
  ASSERT_TRUE(recs.ok());
  const auto& rec = recs->front();

  minispark::RunOptions quiet;
  quiet.noise_sigma = 0.0;
  quiet.straggler_prob = 0.0;
  minispark::Engine engine(quiet);
  auto actual = engine.Run(w.make(test), fast.WithMachines(rec.machines),
                           rec.plan);
  ASSERT_TRUE(actual.ok());

  const double unadapted_acc =
      math::PredictionAccuracy(rec.predicted_time_ms, actual->duration_ms);
  const double adapted_acc = math::PredictionAccuracy(
      adaptation->Adapt(rec.predicted_time_ms), actual->duration_ms);
  EXPECT_GT(adapted_acc, unadapted_acc);
  EXPECT_GT(adapted_acc, 0.8);
}

TEST(MachineAdaptationTest, OptimizationModelsTransferWithoutAdaptation) {
  // §6.2: schedules, sizes and the memory factor are machine-type
  // independent; only the machine count changes (more memory per machine
  // means fewer machines).
  const auto trained = TrainSmall("svm", /*iterations=*/10);
  ClusterConfig big = PaperCluster(1);
  big.executor_memory_bytes *= 2.0;
  const AppParams test{16000, 4000, 10};
  auto on_paper = trained.RecommendAll(test, PaperCluster(1));
  auto on_big = trained.RecommendAll(test, big);
  ASSERT_TRUE(on_paper.ok());
  ASSERT_TRUE(on_big.ok());
  for (size_t i = 0; i < on_paper->size(); ++i) {
    EXPECT_EQ((*on_paper)[i].plan, (*on_big)[i].plan);
    EXPECT_DOUBLE_EQ((*on_paper)[i].predicted_bytes,
                     (*on_big)[i].predicted_bytes);
    EXPECT_LE((*on_big)[i].machines, (*on_paper)[i].machines);
  }
}

TEST(MachineAdaptationTest, RejectsEmptyProbes) {
  const auto trained = TrainSmall("svm", /*iterations=*/10);
  const auto w = workloads::GetWorkload("svm").value();
  EXPECT_FALSE(AdaptTimeModelToMachineType(trained, w.make,
                                           FastMachineType(), {},
                                           minispark::RunOptions{})
                   .ok());
}

}  // namespace
}  // namespace juggler::core
