#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "common/random.h"
#include "math/linear_model.h"
#include "math/stats.h"

namespace juggler::math {
namespace {

std::vector<Observation> GridObservations(
    const std::function<double(double, double)>& fn) {
  std::vector<Observation> out;
  for (double e : {1000.0, 2000.0, 4000.0}) {
    for (double f : {250.0, 500.0, 1000.0}) {
      out.push_back(Observation{{e, f}, fn(e, f)});
    }
  }
  return out;
}

TEST(LinearModelTest, FamiliesHaveExpectedArity) {
  const auto sizes = MakeSizeModelFamilies();
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0].num_terms(), 1);
  EXPECT_EQ(sizes[1].num_terms(), 2);
  EXPECT_EQ(sizes[2].num_terms(), 2);
  EXPECT_EQ(sizes[3].num_terms(), 3);
  const auto times = MakeTimeModelFamilies();
  ASSERT_EQ(times.size(), 4u);
}

TEST(LinearModelTest, FitRecoversCoefficients) {
  auto model = MakeSizeModelFamilies()[1];  // size = t0*e + t1*e*f
  const auto data =
      GridObservations([](double e, double f) { return 4.0 * e + 0.5 * e * f; });
  ASSERT_TRUE(model.Fit(data).ok());
  ASSERT_TRUE(model.fitted());
  EXPECT_NEAR(model.coefficients()[0], 4.0, 1e-3);
  EXPECT_NEAR(model.coefficients()[1], 0.5, 1e-6);
  EXPECT_NEAR(model.Predict({3000, 600}), 4.0 * 3000 + 0.5 * 3000 * 600, 1.0);
}

TEST(LinearModelTest, FitRejectsTooFewObservations) {
  auto model = MakeSizeModelFamilies()[3];  // 3 terms
  std::vector<Observation> two = {{{1, 1}, 1.0}, {{2, 2}, 2.0}};
  EXPECT_FALSE(model.Fit(two).ok());
}

TEST(LinearModelTest, PredictOnUnfittedAsserts) {
  auto model = MakeSizeModelFamilies()[0];
  EXPECT_FALSE(model.fitted());
}

TEST(LinearModelTest, ToStringShowsCoefficients) {
  auto model = MakeSizeModelFamilies()[0];
  EXPECT_NE(model.ToString().find("unfitted"), std::string::npos);
  ASSERT_TRUE(
      model.Fit(GridObservations([](double e, double f) { return 2.0 * e * f; }))
          .ok());
  EXPECT_NE(model.ToString().find("e*f"), std::string::npos);
}

TEST(MeanRelativeErrorTest, ZeroForPerfectFit) {
  auto model = MakeSizeModelFamilies()[0];
  const auto data =
      GridObservations([](double e, double f) { return 1.5 * e * f; });
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(MeanRelativeError(model, data), 0.0, 1e-9);
}

TEST(CrossValidationTest, SelectsGeneratingFamily) {
  // Data from size = t0*f + t1*e*f (family 3); CV must pick it (or a family
  // that fits it equally well).
  const auto data = GridObservations(
      [](double e, double f) { return 100.0 * f + 0.25 * e * f; });
  auto best = SelectModelByCrossValidation(MakeSizeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 1e-6);
}

TEST(CrossValidationTest, SelectsConstantPlusProductForTimeData) {
  const auto data = GridObservations(
      [](double e, double f) { return 5000.0 + 0.001 * e * f; });
  auto best = SelectModelByCrossValidation(MakeTimeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 1e-6);
}

TEST(CrossValidationTest, ToleratesNoise) {
  Rng rng(5);
  auto data = GridObservations(
      [](double e, double f) { return 2.0 * e * f + 10.0 * e; });
  for (auto& obs : data) obs.value *= rng.Jitter(0.02);
  auto best = SelectModelByCrossValidation(MakeSizeModelFamilies(), data);
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, data), 0.05);
}

TEST(CrossValidationTest, FailsOnEmptyData) {
  EXPECT_FALSE(SelectModelByCrossValidation(MakeSizeModelFamilies(), {}).ok());
}

TEST(CrossValidationTest, FailsWhenNoFamilyFits) {
  // One observation cannot LOO-validate any family.
  std::vector<Observation> one = {{{1, 1}, 1.0}};
  EXPECT_FALSE(SelectModelByCrossValidation(MakeSizeModelFamilies(), one).ok());
  EXPECT_EQ(LeaveOneOutError(MakeSizeModelFamilies()[0], one).status().code(),
            StatusCode::kFailedPrecondition);
  // Every held-out value is zero: there is no relative error to average.
  const auto zeros = GridObservations([](double, double) { return 0.0; });
  EXPECT_EQ(
      LeaveOneOutError(MakeSizeModelFamilies()[0], zeros).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(StatsTest, RelativeErrorAndAccuracy) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(90, 100), 0.9);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(300, 100), 0.0);  // Clamped.
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

/// Property sweep: whichever of the four size families generated the data,
/// cross-validation recovers a model with near-zero error.
class FamilyRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyRecoveryTest, RecoversGeneratingFamily) {
  const int family = GetParam();
  Rng rng(static_cast<uint64_t>(family) + 100);
  const double t0 = rng.Uniform(0.5, 5.0);
  const double t1 = rng.Uniform(0.01, 0.2);
  const double t2 = rng.Uniform(0.001, 0.01);
  auto fn = [&](double e, double f) -> double {
    switch (family) {
      case 0:
        return t0 * e * f;
      case 1:
        return t0 * e + t1 * e * f;
      case 2:
        return t0 * f + t1 * e * f;
      default:
        return t0 + t1 * e + t2 * e * f;
    }
  };
  auto best =
      SelectModelByCrossValidation(MakeSizeModelFamilies(), GridObservations(fn));
  ASSERT_TRUE(best.ok());
  EXPECT_LT(MeanRelativeError(*best, GridObservations(fn)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyRecoveryTest,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Reference: the plain leave-one-out loop — copy the n-1 training
// observations, Fit a fresh copy of the family, Predict the held-out point.
// The production code builds the folds from one design matrix instead; it
// must give bit-identical errors, hence the same pick and coefficients.

std::optional<double> ReferenceLooError(const LinearModel& family,
                                        const std::vector<Observation>& data) {
  if (static_cast<int>(data.size()) <= family.num_terms()) return std::nullopt;
  double error_sum = 0.0;
  int folds = 0;
  for (size_t held = 0; held < data.size(); ++held) {
    std::vector<Observation> train;
    for (size_t i = 0; i < data.size(); ++i) {
      if (i != held) train.push_back(data[i]);
    }
    LinearModel fold = family;
    if (!fold.Fit(train).ok()) return std::nullopt;
    const double actual = data[held].value;
    if (actual != 0.0) {
      error_sum += std::fabs(fold.Predict(data[held].params) - actual) /
                   std::fabs(actual);
      ++folds;
    }
  }
  if (folds == 0) return std::nullopt;
  return error_sum / folds;
}

void ExpectSameSelection(const std::vector<LinearModel>& families,
                         const std::vector<Observation>& data) {
  double best_error = std::numeric_limits<double>::infinity();
  int best_index = -1;
  for (size_t i = 0; i < families.size(); ++i) {
    const std::optional<double> want = ReferenceLooError(families[i], data);
    auto got = LeaveOneOutError(families[i], data);
    ASSERT_EQ(got.ok(), want.has_value()) << families[i].name();
    if (!want.has_value()) continue;
    EXPECT_EQ(*got, *want) << families[i].name();
    if (*want < best_error) {
      best_error = *want;
      best_index = static_cast<int>(i);
    }
  }
  auto got = SelectModelByCrossValidation(families, data);
  ASSERT_EQ(got.ok(), best_index >= 0);
  if (!got.ok()) return;
  LinearModel want = families[static_cast<size_t>(best_index)];
  ASSERT_TRUE(want.Fit(data).ok());
  EXPECT_EQ(got->name(), want.name());
  ASSERT_EQ(got->coefficients().size(), want.coefficients().size());
  for (size_t c = 0; c < got->coefficients().size(); ++c) {
    EXPECT_EQ(got->coefficients()[c], want.coefficients()[c])
        << got->name() << " coefficient " << c;
  }
}

std::vector<LinearModel> FamiliesFor(const std::string& name) {
  return name.rfind("size~", 0) == 0 ? MakeSizeModelFamilies()
                                     : MakeTimeModelFamilies();
}

/// Exact data from each of the eight families: the nested families fit it
/// equally well, so the pick is decided by rounding in the fold fits.
class SameSelectionTest : public ::testing::TestWithParam<int> {};

TEST_P(SameSelectionTest, ExactFamilyDataMatchesReference) {
  std::vector<LinearModel> all = MakeSizeModelFamilies();
  for (LinearModel& m : MakeTimeModelFamilies()) all.push_back(std::move(m));
  LinearModel truth = all[static_cast<size_t>(GetParam())];
  Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  std::vector<double> coefficients;
  for (int c = 0; c < truth.num_terms(); ++c) {
    coefficients.push_back(rng.Uniform(0.01, 5.0));
  }
  ASSERT_TRUE(truth.SetCoefficients(coefficients).ok());
  const auto data = GridObservations(
      [&](double e, double f) { return truth.Predict({e, f}); });
  ExpectSameSelection(FamiliesFor(truth.name()), data);
}

INSTANTIATE_TEST_SUITE_P(EightFamilies, SameSelectionTest,
                         ::testing::Range(0, 8));

TEST(SameSelectionTest, NoisyDataMatchesReference) {
  Rng rng(11);
  auto data = GridObservations(
      [](double e, double f) { return 2.0 * e * f + 10.0 * e; });
  for (auto& obs : data) obs.value *= rng.Jitter(0.02);
  ExpectSameSelection(MakeSizeModelFamilies(), data);
  ExpectSameSelection(MakeTimeModelFamilies(), data);
}

TEST(SameSelectionTest, DuplicatedRowsMatchReference) {
  auto data = GridObservations(
      [](double e, double f) { return 700.0 + 0.002 * e * f; });
  const auto copy = data;
  data.insert(data.end(), copy.begin(), copy.begin() + 4);
  data.push_back(copy.front());
  ExpectSameSelection(MakeSizeModelFamilies(), data);
  ExpectSameSelection(MakeTimeModelFamilies(), data);
}

TEST(SameSelectionTest, ZeroValuedObservationMatchesReference) {
  auto data = GridObservations(
      [](double e, double f) { return 3.0 * f + 0.01 * e * f; });
  data[4].value = 0.0;  // Skipped as a held-out point, still trained on.
  ExpectSameSelection(MakeSizeModelFamilies(), data);
  ExpectSameSelection(MakeTimeModelFamilies(), data);
}

TEST(SameSelectionTest, OneMoreObservationThanTermsMatchesReference) {
  // Four points: the three-term size family has exactly k+1 observations.
  std::vector<Observation> data = {{{1000, 250}, 9.1e5},
                                   {{2000, 500}, 2.1e6},
                                   {{4000, 250}, 3.9e6},
                                   {{1000, 1000}, 1.3e6}};
  ExpectSameSelection(MakeSizeModelFamilies(), data);
  ExpectSameSelection(MakeTimeModelFamilies(), data);
}

TEST(SameSelectionTest, ServingSizedObservationBatchMatchesReference) {
  // One refit target's worth of live observations, drawn like the serving
  // benchmark's observe batches: e in [2000, 20000], f in [100, 2000], the
  // value a drifted time model (x1.25) with 2% jitter.
  Rng rng(450);
  std::vector<Observation> data;
  for (int i = 0; i < 450; ++i) {
    const double e = static_cast<double>(rng.UniformInt(2'000, 20'000));
    const double f = static_cast<double>(rng.UniformInt(100, 2'000));
    const double predicted = 1800.0 + 0.004 * e * f;
    data.push_back({{e, f}, std::max(1.0, predicted * 1.25 * rng.Jitter(0.02))});
  }
  ExpectSameSelection(MakeTimeModelFamilies(), data);
  ExpectSameSelection(MakeSizeModelFamilies(), data);
}

}  // namespace
}  // namespace juggler::math
