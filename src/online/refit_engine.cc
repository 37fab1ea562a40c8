#include "online/refit_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "math/linear_model.h"

namespace juggler::online {

namespace {

/// Fraction of the most recent observations held out of the fit and used to
/// judge candidate vs incumbent.
constexpr double kHoldoutFraction = 0.25;

/// The holdout never shrinks below this many observations.
constexpr size_t kMinHoldout = 3;

math::Observation ToMathObservation(const Observation& o) {
  return math::Observation{{o.params.examples, o.params.features}, o.value};
}

/// Refit policy for one target: cross-validated family selection when the
/// data affords it, else a straight refit of the incumbent family, else the
/// untouched incumbent. Returns true when `out` was replaced.
bool RefitOne(const math::LinearModel& incumbent,
              std::vector<math::LinearModel> families,
              const std::vector<math::Observation>& train,
              math::LinearModel* out) {
  int max_terms = 0;
  for (const math::LinearModel& family : families) {
    max_terms = std::max(max_terms, family.num_terms());
  }
  // Leave-one-out needs one spare observation beyond the widest family.
  if (train.size() > static_cast<size_t>(max_terms)) {
    auto selected =
        math::SelectModelByCrossValidation(std::move(families), train);
    if (selected.ok()) {
      *out = std::move(selected).value();
      return true;
    }
  }
  auto family = math::MakeModelFamilyByName(incumbent.name());
  if (family.ok() &&
      train.size() >= static_cast<size_t>(family->num_terms())) {
    if (family->Fit(train).ok()) {
      *out = std::move(family).value();
      return true;
    }
  }
  return false;
}

}  // namespace

size_t RefitEngine::MinObservations() const { return kMinHoldout + 2; }

bool RefitEngine::CountTriggered(size_t model_records) const {
  return model_records >= std::max(options_.min_records, MinObservations());
}

bool RefitEngine::IntervalTriggered(int64_t since_last_attempt_ms,
                                    size_t model_records) const {
  return options_.interval_ms > 0 &&
         since_last_attempt_ms >= options_.interval_ms &&
         model_records >= MinObservations();
}

bool RefitEngine::ErrorTriggered(
    const std::vector<Observation>& observations) const {
  if (options_.error_threshold <= 0.0) return false;
  return observations.size() >= MinObservations() &&
         ObservedError(observations) > options_.error_threshold;
}

double RefitEngine::ObservedError(
    const std::vector<Observation>& observations) {
  double sum = 0.0;
  size_t n = 0;
  for (const Observation& o : observations) {
    if (o.predicted <= 0.0 || o.value <= 0.0) continue;
    sum += std::abs(o.value - o.predicted) / o.value;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double RefitEngine::HoldoutError(const core::TrainedJuggler& model,
                                 const std::vector<Observation>& holdout) {
  std::map<int, size_t> schedule_index;
  for (size_t i = 0; i < model.schedules().size(); ++i) {
    schedule_index[model.schedules()[i].id] = i;
  }
  double sum = 0.0;
  size_t n = 0;
  for (const Observation& o : holdout) {
    if (o.value <= 0.0) continue;
    double predicted = 0.0;
    if (o.kind == ObservationKind::kRunTime) {
      auto it = schedule_index.find(o.target);
      if (it == schedule_index.end()) continue;
      predicted = model.time_models()[it->second].Predict(
          {o.params.examples, o.params.features});
    } else {
      auto it = model.sizes().models.find(o.target);
      if (it == model.sizes().models.end()) continue;
      predicted = it->second.Predict({o.params.examples, o.params.features});
    }
    sum += std::abs(predicted - o.value) / o.value;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n)
               : std::numeric_limits<double>::infinity();
}

StatusOr<RefitEngine::Outcome> RefitEngine::Refit(
    const core::TrainedJuggler& incumbent,
    const std::vector<Observation>& observations) const {
  std::vector<Observation> model_obs;
  model_obs.reserve(observations.size());
  for (const Observation& o : observations) {
    if (o.value > 0.0) model_obs.push_back(o);
  }
  if (model_obs.size() < MinObservations()) {
    return Status::FailedPrecondition(
        "need at least " + std::to_string(MinObservations()) +
        " model-target observations, have " +
        std::to_string(model_obs.size()));
  }
  // Time-ordered split: train on the oldest, judge on the most recent — the
  // candidate must predict where traffic is heading, not where it has been.
  size_t holdout_size = static_cast<size_t>(
      std::ceil(kHoldoutFraction * static_cast<double>(model_obs.size())));
  holdout_size = std::clamp(holdout_size, kMinHoldout, model_obs.size() - 1);
  const size_t train_size = model_obs.size() - holdout_size;
  const std::vector<Observation> train(model_obs.begin(),
                                       model_obs.begin() + train_size);
  const std::vector<Observation> holdout(model_obs.begin() + train_size,
                                         model_obs.end());

  // Group the training split by target.
  std::map<int, std::vector<math::Observation>> time_train;
  std::map<int, std::vector<math::Observation>> size_train;
  for (const Observation& o : train) {
    if (o.kind == ObservationKind::kRunTime) {
      time_train[o.target].push_back(ToMathObservation(o));
    } else {
      size_train[o.target].push_back(ToMathObservation(o));
    }
  }

  Outcome outcome{incumbent, 0.0, 0.0, false, 0, 0};
  core::SizeCalibration sizes = incumbent.sizes();
  for (auto& [dataset, model] : sizes.models) {
    auto it = size_train.find(dataset);
    if (it == size_train.end()) continue;
    if (RefitOne(model, math::MakeSizeModelFamilies(), it->second, &model)) {
      ++outcome.size_models_refit;
    }
  }
  std::vector<math::LinearModel> time_models = incumbent.time_models();
  for (size_t i = 0; i < incumbent.schedules().size(); ++i) {
    auto it = time_train.find(incumbent.schedules()[i].id);
    if (it == time_train.end()) continue;
    if (RefitOne(time_models[i], math::MakeTimeModelFamilies(), it->second,
                 &time_models[i])) {
      ++outcome.time_models_refit;
    }
  }
  if (outcome.size_models_refit == 0 && outcome.time_models_refit == 0) {
    return Status::FailedPrecondition(
        "no size or time model had enough training observations to refit");
  }

  outcome.candidate =
      core::TrainedJuggler(incumbent.app_name(), incumbent.schedules(),
                           std::move(sizes), incumbent.memory(),
                           std::move(time_models));
  outcome.incumbent_error = HoldoutError(incumbent, holdout);
  outcome.candidate_error = HoldoutError(outcome.candidate, holdout);
  outcome.accepted = std::isfinite(outcome.candidate_error) &&
                     outcome.candidate_error < outcome.incumbent_error;
  return outcome;
}

}  // namespace juggler::online
