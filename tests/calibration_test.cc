#include <gtest/gtest.h>

#include "common/units.h"
#include "core/dataset_metrics.h"
#include "core/exec_time_model.h"
#include "core/hotspot.h"
#include "core/juggler.h"
#include "core/memory_calibration.h"
#include "core/parameter_calibration.h"
#include "math/stats.h"
#include "minispark/engine.h"
#include "workloads/workloads.h"

namespace juggler::core {
namespace {

using minispark::AppParams;
using minispark::ClusterConfig;
using minispark::Engine;
using minispark::PaperCluster;
using minispark::RunOptions;
using minispark::TrainingNode;

RunOptions Quiet() {
  RunOptions o;
  o.noise_sigma = 0.0;
  o.straggler_prob = 0.0;
  return o;
}

/// Trains hotspot schedules for a workload at small sample parameters.
std::vector<Schedule> SchedulesFor(const workloads::Workload& w) {
  RunOptions o = Quiet();
  o.instrument = true;
  Engine engine(o);
  auto run = engine.RunDefault(w.make(AppParams{2000, 500, 3}), TrainingNode());
  EXPECT_TRUE(run.ok());
  const MergedDag dag = BuildMergedDag(*run->profile);
  auto metrics = DeriveDatasetMetrics(dag, *run->profile);
  EXPECT_TRUE(metrics.ok());
  auto schedules = DetectHotspots(dag, *metrics);
  EXPECT_TRUE(schedules.ok());
  return *schedules;
}

TrainingGrid SmallGrid() {
  return TrainingGrid{{1000, 2000, 4000}, {250, 500, 1000}, 2};
}

TEST(CalibrateSizesTest, PredictsSizesAtUnseenParameters) {
  const auto w = workloads::GetWorkload("svm").value();
  const auto schedules = SchedulesFor(w);
  ASSERT_FALSE(schedules.empty());
  auto calib = CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(),
                              Quiet());
  ASSERT_TRUE(calib.ok()) << calib.status().ToString();
  EXPECT_EQ(calib->experiments, 9);
  EXPECT_GT(calib->training_machine_minutes, 0.0);

  // Predicted sizes at unseen (larger) parameters match the actual
  // instantiation within 2 %.
  const AppParams test{6000, 1500, 2};
  const auto app = w.make(test);
  for (const auto& [id, model] : calib->models) {
    const double predicted = model.Predict(test.AsVector());
    const double actual = app.dataset(id).bytes;
    EXPECT_LT(math::RelativeError(predicted, actual), 0.02)
        << "dataset " << id << ": " << model.ToString();
  }
}

TEST(CalibrateSizesTest, RejectsEmptyGrid) {
  const auto w = workloads::GetWorkload("svm").value();
  const auto schedules = SchedulesFor(w);
  EXPECT_FALSE(
      CalibrateSizes(w.make, schedules, TrainingGrid{}, TrainingNode(), Quiet())
          .ok());
}

TEST(CalibrateSizesTest, EmptyScheduleListYieldsNoModels) {
  const auto w = workloads::GetWorkload("svm").value();
  auto calib = CalibrateSizes(w.make, {}, SmallGrid(), TrainingNode(), Quiet());
  ASSERT_TRUE(calib.ok());
  EXPECT_TRUE(calib->models.empty());
  EXPECT_EQ(calib->experiments, 0);
}

TEST(PredictScheduleBytesTest, HonoursUnpersist) {
  const auto w = workloads::GetWorkload("pca").value();
  const auto schedules = SchedulesFor(w);
  ASSERT_FALSE(schedules.empty());
  auto calib =
      CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(), Quiet());
  ASSERT_TRUE(calib.ok());

  const AppParams p{4000, 800, 2};
  const Schedule& s = schedules.back();
  auto peak = PredictScheduleBytes(s, *calib, p);
  ASSERT_TRUE(peak.ok());
  double sum = 0.0;
  for (DatasetId d : s.datasets) sum += calib->models.at(d).Predict(p.AsVector());
  if (s.plan.ToString().find('u') != std::string::npos) {
    EXPECT_LT(*peak, sum);  // Unpersist must shrink the peak below the sum.
  } else {
    EXPECT_NEAR(*peak, sum, 1e-6 * sum);
  }
}

TEST(PredictScheduleBytesTest, MissingModelIsNotFound) {
  Schedule s;
  s.datasets = {42};
  s.plan = minispark::CachePlan::Parse("p(42)").value();
  EXPECT_EQ(PredictScheduleBytes(s, SizeCalibration{}, AppParams{1, 1, 1})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RecommendMachinesTest, AppliesEquationsFiveAndSix) {
  ClusterConfig machine = PaperCluster(1);
  const double m_bytes = machine.UnifiedMemoryPerMachine();
  // A schedule of exactly 3.5 M with factor 1.0 needs 4 machines.
  EXPECT_EQ(RecommendMachines(3.5 * m_bytes, machine, 1.0), 4);
  // With factor 0.8 the per-machine budget shrinks: ceil(3.5/0.8) = 5.
  EXPECT_EQ(RecommendMachines(3.5 * m_bytes, machine, 0.8), 5);
  // Tiny schedules need one machine.
  EXPECT_EQ(RecommendMachines(100.0, machine, 1.0), 1);
  EXPECT_EQ(RecommendMachines(0.0, machine, 1.0), 1);
}

TEST(CalibrateMemoryTest, FactorWithinPaperBounds) {
  const auto w = workloads::GetWorkload("svm").value();
  const auto schedules = SchedulesFor(w);
  ASSERT_FALSE(schedules.empty());
  auto sizes =
      CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(), Quiet());
  ASSERT_TRUE(sizes.ok());
  auto memory = CalibrateMemory(w.make, schedules.back(), *sizes,
                                PaperCluster(1), w.paper_params, 3, Quiet());
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  EXPECT_GE(memory->memory_factor, 0.5);
  EXPECT_LE(memory->memory_factor, 1.0);
  // SVM reserves ~20 % of M for execution (paper §2.2), so the factor sits
  // near 0.8, well below 1.
  EXPECT_LT(memory->memory_factor, 0.95);
  EXPECT_GT(memory->training_machine_minutes, 0.0);
  // The chosen parameters should make the schedule roughly fill M.
  auto bytes = PredictScheduleBytes(schedules.back(), *sizes,
                                    memory->chosen_params);
  ASSERT_TRUE(bytes.ok());
  EXPECT_NEAR(*bytes, PaperCluster(1).UnifiedMemoryPerMachine(),
              0.1 * PaperCluster(1).UnifiedMemoryPerMachine());
}

TEST(BuildTimeModelTest, PredictsUnseenRunsAccurately) {
  const auto w = workloads::GetWorkload("lor").value();
  const auto schedules = SchedulesFor(w);
  ASSERT_FALSE(schedules.empty());
  auto sizes =
      CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(), Quiet());
  ASSERT_TRUE(sizes.ok());

  TrainingGrid grid{{4000, 8000, 16000}, {1000, 2000, 4000}, 5};
  auto results = BuildTimeModels(w.make, {schedules.front()}, *sizes, 0.85,
                                 PaperCluster(1), grid, Quiet());
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  const TimeModelResult& tm = results->front();
  EXPECT_EQ(tm.machines_used.size(), 9u);
  EXPECT_GT(tm.training_machine_minutes, 0.0);

  // Validate at interpolated parameters.
  const AppParams test{10000, 3000, 5};
  auto bytes = PredictScheduleBytes(schedules.front(), *sizes, test);
  ASSERT_TRUE(bytes.ok());
  const int machines = RecommendMachines(*bytes, PaperCluster(1), 0.85);
  Engine engine(Quiet());
  auto actual = engine.Run(w.make(test), PaperCluster(machines),
                           schedules.front().plan);
  ASSERT_TRUE(actual.ok());
  const double predicted = tm.model.Predict(test.AsVector());
  EXPECT_GT(math::PredictionAccuracy(predicted, actual->duration_ms), 0.8)
      << "predicted " << predicted << " actual " << actual->duration_ms;
}

TEST(BuildTimeModelTest, RejectsEmptyGrid) {
  const auto w = workloads::GetWorkload("lor").value();
  const auto schedules = SchedulesFor(w);
  auto sizes =
      CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(), Quiet());
  ASSERT_TRUE(sizes.ok());
  EXPECT_FALSE(BuildTimeModels(w.make, {schedules.front()}, *sizes, 1.0,
                               PaperCluster(1), TrainingGrid{}, Quiet())
                   .ok());
}

/// The per-schedule stage 4 that BuildTimeModels replaced, kept as the
/// reference: every schedule runs the whole grid on its own, rebuilding
/// each grid point's application, with seeds from `run_options.seed` up.
StatusOr<TimeModelResult> ReferenceBuildTimeModel(
    const AppFactory& factory, const Schedule& schedule,
    const SizeCalibration& sizes, double memory_factor,
    const ClusterConfig& machine_type, const TrainingGrid& grid,
    const RunOptions& run_options) {
  TimeModelResult out{math::LinearModel("unfitted", {}, {}), 0.0, {}};
  std::vector<math::Observation> observations;
  RunOptions options = run_options;
  for (double e : grid.examples) {
    for (double f : grid.features) {
      const AppParams params{e, f, grid.iterations};
      auto bytes = PredictScheduleBytes(schedule, sizes, params);
      if (!bytes.ok()) return bytes.status();
      const int machines =
          RecommendMachines(*bytes, machine_type, memory_factor);
      Engine engine(options);
      auto result = engine.Run(factory(params),
                               machine_type.WithMachines(machines),
                               schedule.plan);
      if (!result.ok()) return result.status();
      out.training_machine_minutes += result->CostMachineMinutes();
      out.machines_used.push_back(machines);
      observations.push_back(
          math::Observation{params.AsVector(), result->duration_ms});
      options.seed += 1;
    }
  }
  auto model = math::SelectModelByCrossValidation(
      math::MakeTimeModelFamilies(), observations);
  if (!model.ok()) return model.status();
  out.model = std::move(model).value();
  return out;
}

// Default RunOptions keep task noise and stragglers on, so a run under the
// wrong seed changes a duration and with it the fit.
TEST(BuildTimeModelsTest, MatchesThePerScheduleReference) {
  const RunOptions options;
  int compared = 0;
  for (const auto& w : workloads::AllWorkloads()) {
    auto schedules = SchedulesFor(w);
    ASSERT_FALSE(schedules.empty()) << w.name;
    auto sizes = CalibrateSizes(w.make, schedules, SmallGrid(), TrainingNode(),
                                options);
    ASSERT_TRUE(sizes.ok()) << w.name;
    const TrainingGrid grid =
        core::PaperTrainingConfig(w.paper_params).time_grid;
    for (size_t n = 1; n <= std::min<size_t>(3, schedules.size()); ++n) {
      const std::vector<Schedule> prefix(schedules.begin(),
                                         schedules.begin() + n);
      auto results = BuildTimeModels(w.make, prefix, *sizes, 0.8,
                                     PaperCluster(1), grid, options);
      ASSERT_TRUE(results.ok()) << w.name << ": "
                                << results.status().ToString();
      ASSERT_EQ(results->size(), n);
      for (size_t s = 0; s < n; ++s) {
        auto want = ReferenceBuildTimeModel(w.make, prefix[s], *sizes, 0.8,
                                            PaperCluster(1), grid, options);
        ASSERT_TRUE(want.ok()) << w.name;
        const TimeModelResult& got = (*results)[s];
        EXPECT_EQ(got.model.name(), want->model.name()) << w.name << " " << s;
        EXPECT_EQ(got.model.coefficients(), want->model.coefficients())
            << w.name << " schedule " << s;
        EXPECT_EQ(got.machines_used, want->machines_used) << w.name;
        EXPECT_EQ(got.training_machine_minutes,
                  want->training_machine_minutes)
            << w.name << " schedule " << s;
        ++compared;
      }
    }
  }
  // Every app contributes at least one schedule; some contribute several,
  // so the shared grid loop is exercised with more than one schedule.
  EXPECT_GT(compared, 5);
}

}  // namespace
}  // namespace juggler::core
