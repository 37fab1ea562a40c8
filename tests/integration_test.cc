#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <sstream>

#include "core/juggler.h"
#include "core/serialization.h"
#include "math/stats.h"
#include "minispark/engine.h"
#include "test_models.h"
#include "workloads/workloads.h"

namespace juggler {
namespace {

using core::JugglerConfig;
using core::TrainingGrid;
using minispark::AppParams;
using minispark::Engine;
using minispark::PaperCluster;
using minispark::RunOptions;

/// End-to-end configuration at reduced scale (quick tests): user runs land
/// around (16k x 4k); training grids sit below that.
int TestIterations(const workloads::Workload& w) {
  return std::min(30, w.paper_params.iterations);
}

JugglerConfig SmallConfig(const workloads::Workload& w) {
  JugglerConfig config;
  // Time models assume a fixed iteration count (paper §6.1): train and
  // query at the same one.
  config.time_grid = TrainingGrid{
      {6000, 10000, 16000}, {1500, 2500, 4000}, TestIterations(w)};
  config.memory_reference = w.paper_params;
  config.run_options.noise_sigma = 0.005;
  config.run_options.straggler_prob = 0.0;
  return config;
}

class TrainAllWorkloadsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TrainAllWorkloadsTest, TrainsEndToEnd) {
  const auto w = workloads::GetWorkload(GetParam()).value();
  auto training = core::TrainJuggler(w.name, w.make, SmallConfig(w));
  ASSERT_TRUE(training.ok()) << training.status().ToString();
  const auto& trained = training->trained;

  EXPECT_FALSE(trained.schedules().empty());
  EXPECT_LE(trained.schedules().size(), 4u);
  EXPECT_GE(trained.memory().memory_factor, 0.5);
  EXPECT_LE(trained.memory().memory_factor, 1.0);
  EXPECT_EQ(trained.time_models().size(), trained.schedules().size());
  EXPECT_GT(training->costs.Total(), 0.0);
  EXPECT_GT(training->costs.Optimization(), 0.0);
  EXPECT_GT(training->costs.Prediction(), 0.0);
  // Benefits grow with schedule id (more caching).
  for (size_t i = 1; i < trained.schedules().size(); ++i) {
    EXPECT_GE(trained.schedules()[i].benefit_ms,
              trained.schedules()[i - 1].benefit_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(FiveApps, TrainAllWorkloadsTest,
                         ::testing::Values("lir", "lor", "pca", "rfc", "svm"));

TEST(IntegrationTest, SvmRecommendationNearOptimalAndPredictionsAccurate) {
  const auto w = workloads::GetWorkload("svm").value();
  auto training = core::TrainJuggler(w.name, w.make, SmallConfig(w));
  ASSERT_TRUE(training.ok()) << training.status().ToString();
  const auto& trained = training->trained;

  const AppParams user{16000, 4000, TestIterations(w)};
  auto recs = trained.RecommendAll(user, PaperCluster(1));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());

  RunOptions quiet;
  quiet.noise_sigma = 0.005;
  quiet.straggler_prob = 0.0;

  for (const auto& rec : *recs) {
    // Ground truth: sweep 1..12 machines for this schedule.
    double best_cost = std::numeric_limits<double>::infinity();
    int best_machines = 0;
    double cost_at_recommended = 0.0;
    double time_at_recommended = 0.0;
    for (int m = 1; m <= 12; ++m) {
      Engine engine(quiet);
      auto r = engine.Run(w.make(user), PaperCluster(m), rec.plan);
      ASSERT_TRUE(r.ok());
      if (r->CostMachineMinutes() < best_cost) {
        best_cost = r->CostMachineMinutes();
        best_machines = m;
      }
      if (m == rec.machines) {
        cost_at_recommended = r->CostMachineMinutes();
        time_at_recommended = r->duration_ms;
      }
    }
    // Near-optimal configuration: within 2 machines and within 30 % extra
    // cost of the optimum (the paper reports optimal in 50 % of cases,
    // +7.3 % cost on average otherwise).
    EXPECT_LE(std::abs(rec.machines - best_machines), 2)
        << "schedule " << rec.schedule_id;
    EXPECT_LE(cost_at_recommended, 1.3 * best_cost)
        << "schedule " << rec.schedule_id;
    // Time prediction accuracy at the recommended configuration.
    EXPECT_GT(math::PredictionAccuracy(rec.predicted_time_ms,
                                       time_at_recommended),
              0.7)
        << "schedule " << rec.schedule_id << " predicted "
        << rec.predicted_time_ms << " actual " << time_at_recommended;
  }
}

TEST(IntegrationTest, JugglerBeatsDeveloperDefaults) {
  // The headline claim: Juggler's best schedule at its recommended
  // configuration costs less than the developer defaults at the same
  // machine count sweep's best.
  const auto w = workloads::GetWorkload("lir").value();
  auto training = core::TrainJuggler(w.name, w.make, SmallConfig(w));
  ASSERT_TRUE(training.ok());

  const AppParams user{16000, 4000, TestIterations(w)};
  auto recs = training->trained.RecommendAll(user, PaperCluster(1));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());

  RunOptions quiet;
  quiet.noise_sigma = 0.0;
  quiet.straggler_prob = 0.0;
  Engine engine(quiet);

  double juggler_best = std::numeric_limits<double>::infinity();
  for (const auto& rec : *recs) {
    auto r = engine.Run(w.make(user), PaperCluster(rec.machines), rec.plan);
    ASSERT_TRUE(r.ok());
    juggler_best = std::min(juggler_best, r->CostMachineMinutes());
  }
  double default_best = std::numeric_limits<double>::infinity();
  for (int m = 1; m <= 12; ++m) {
    auto r = engine.RunDefault(w.make(user), PaperCluster(m));
    ASSERT_TRUE(r.ok());
    default_best = std::min(default_best, r->CostMachineMinutes());
  }
  EXPECT_LT(juggler_best, default_best);
}

TEST(IntegrationTest, OnlinePathRunsNoExperiments) {
  // Recommend() must be pure model evaluation: microseconds, not runs.
  const auto w = workloads::GetWorkload("pca").value();
  auto training = core::TrainJuggler(w.name, w.make, SmallConfig(w));
  ASSERT_TRUE(training.ok());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    auto recs = training->trained.Recommend(AppParams{5000.0 + i, 1000, 50},
                                            PaperCluster(1));
    ASSERT_TRUE(recs.ok());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(IntegrationTest, ParetoRecommendationsAreMutuallyNonDominated) {
  const auto w = workloads::GetWorkload("rfc").value();
  auto training = core::TrainJuggler(w.name, w.make, SmallConfig(w));
  ASSERT_TRUE(training.ok());
  auto recs =
      training->trained.Recommend(AppParams{16000, 4000, TestIterations(w)}, PaperCluster(1));
  ASSERT_TRUE(recs.ok());
  for (const auto& a : *recs) {
    for (const auto& b : *recs) {
      if (a.schedule_id == b.schedule_id) continue;
      const bool dominates =
          a.predicted_time_ms <= b.predicted_time_ms &&
          a.predicted_cost_machine_min <= b.predicted_cost_machine_min &&
          (a.predicted_time_ms < b.predicted_time_ms ||
           a.predicted_cost_machine_min < b.predicted_cost_machine_min);
      EXPECT_FALSE(dominates);
    }
  }
}

// The five apps trained at the serving benchmark's config: the paper recipe
// (PaperTrainingConfig) with no task noise and no stragglers. perfbench's
// TrainModels writes the same recipe out by hand, so the digest, recorded
// from that copy, also pins that the two agree. It covers every byte of the
// five saved artifacts, so any change to what a training run simulates or
// fits moves it.
TEST(IntegrationTest, TrainedArtifactsAreBitIdentical) {
  test::Fnv1a digest;
  for (const auto& w : workloads::AllWorkloads()) {
    JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    auto training = core::TrainJuggler(w.name, w.make, config);
    ASSERT_TRUE(training.ok()) << w.name << ": " << training.status().ToString();
    std::ostringstream out;
    ASSERT_TRUE(core::SaveTrainedJuggler(training->trained, out).ok());
    digest.AddBytes(w.name);
    digest.AddBytes(out.str());
  }
  EXPECT_EQ(digest.value(), 0x1a47f8a3c132818bULL);
}

}  // namespace
}  // namespace juggler
