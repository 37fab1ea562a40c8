#include "math/linear_model.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "math/nnls.h"

namespace juggler::math {

LinearModel::LinearModel(std::string name, std::vector<BasisFn> basis,
                         std::vector<std::string> term_names)
    : name_(std::move(name)),
      basis_(std::move(basis)),
      term_names_(std::move(term_names)) {
  assert(basis_.size() == term_names_.size());
}

namespace {

// Evaluates every basis term at every observation: row r of `a` holds the
// terms of data[r], and b[r] its observed value.
void BuildDesign(const LinearModel& model, const std::vector<Observation>& data,
                 Matrix* a, std::vector<double>* b) {
  const int n = static_cast<int>(data.size());
  const int k = model.num_terms();
  *a = Matrix(n, k);
  b->resize(n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < k; ++c) (*a)(r, c) = model.Term(c, data[r].params);
    (*b)[r] = data[r].value;
  }
}

}  // namespace

Status LinearModel::Fit(const std::vector<Observation>& data) {
  const int n = static_cast<int>(data.size());
  const int k = num_terms();
  if (n < k) {
    return Status::InvalidArgument("LinearModel::Fit: fewer observations (" +
                                   std::to_string(n) + ") than terms (" +
                                   std::to_string(k) + ")");
  }
  Matrix a;
  std::vector<double> b;
  BuildDesign(*this, data, &a, &b);
  JUGGLER_RETURN_IF_ERROR(NonNegativeLeastSquares(a, b, &coefficients_));
  fitted_ = true;
  return Status::OK();
}

Status LinearModel::SetCoefficients(std::vector<double> coefficients) {
  if (static_cast<int>(coefficients.size()) != num_terms()) {
    return Status::InvalidArgument(
        "SetCoefficients: expected " + std::to_string(num_terms()) +
        " coefficients, got " + std::to_string(coefficients.size()));
  }
  coefficients_ = std::move(coefficients);
  fitted_ = true;
  return Status::OK();
}

double LinearModel::Predict(const std::vector<double>& params) const {
  assert(fitted_);
  double y = 0.0;
  for (int c = 0; c < num_terms(); ++c) y += coefficients_[c] * basis_[c](params);
  return y;
}

std::string LinearModel::ToString() const {
  std::string out = name_ + ":";
  if (!fitted_) return out + " (unfitted)";
  for (int c = 0; c < num_terms(); ++c) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s%.6g*%s", c > 0 ? "+ " : "",
                  coefficients_[c], term_names_[c].c_str());
    out += buf;
  }
  return out;
}

namespace {

double E(const std::vector<double>& p) { return p[0]; }
double F(const std::vector<double>& p) { return p[1]; }

}  // namespace

std::vector<LinearModel> MakeSizeModelFamilies() {
  std::vector<LinearModel> models;
  models.emplace_back(
      "size~e*f", std::vector<LinearModel::BasisFn>{[](const auto& p) {
        return E(p) * F(p);
      }},
      std::vector<std::string>{"e*f"});
  models.emplace_back(
      "size~e+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return E(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"e", "e*f"});
  models.emplace_back(
      "size~f+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f", "e*f"});
  models.emplace_back(
      "size~1+e+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto&) { return 1.0; }, [](const auto& p) { return E(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"1", "e", "e*f"});
  return models;
}

std::vector<LinearModel> MakeTimeModelFamilies() {
  std::vector<LinearModel> models;
  models.emplace_back(
      "time~e*f", std::vector<LinearModel::BasisFn>{[](const auto& p) {
        return E(p) * F(p);
      }},
      std::vector<std::string>{"e*f"});
  models.emplace_back(
      "time~1+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto&) { return 1.0; },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"1", "e*f"});
  models.emplace_back(
      "time~f+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f", "e*f"});
  models.emplace_back(
      "time~f^2+e*f",
      std::vector<LinearModel::BasisFn>{
          [](const auto& p) { return F(p) * F(p); },
          [](const auto& p) { return E(p) * F(p); }},
      std::vector<std::string>{"f^2", "e*f"});
  return models;
}

StatusOr<LinearModel> MakeModelFamilyByName(const std::string& name) {
  for (auto families : {MakeSizeModelFamilies(), MakeTimeModelFamilies()}) {
    for (LinearModel& m : families) {
      if (m.name() == name) return std::move(m);
    }
  }
  return Status::NotFound("unknown model family: " + name);
}

double MeanRelativeError(const LinearModel& model,
                         const std::vector<Observation>& data) {
  double sum = 0.0;
  int n = 0;
  for (const auto& obs : data) {
    if (obs.value == 0.0) continue;
    sum += std::fabs(model.Predict(obs.params) - obs.value) / std::fabs(obs.value);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

StatusOr<double> LeaveOneOutError(const LinearModel& family,
                                   const std::vector<Observation>& data) {
  const int n = static_cast<int>(data.size());
  const int k = family.num_terms();
  // Need strictly more points than terms so every LOO fold is solvable.
  if (n <= k) {
    return Status::FailedPrecondition(
        "LeaveOneOutError: need more observations than terms");
  }
  Matrix design;
  std::vector<double> values;
  BuildDesign(family, data, &design, &values);
  // Fold `held` is the design without row `held`, rows in their original
  // order. Fold 0 is rows 1..n-1; fold `held` differs from fold `held - 1`
  // only in slot `held - 1`, which goes from row `held` to row `held - 1`.
  Matrix fold(n - 1, k);
  std::vector<double> fold_values(n - 1), coef;
  auto copy_row = [&](int row, int slot) {
    for (int c = 0; c < k; ++c) fold(slot, c) = design(row, c);
    fold_values[slot] = values[row];
  };
  for (int r = 1; r < n; ++r) copy_row(r, r - 1);
  double error_sum = 0.0;
  int folds = 0;
  for (int held = 0; held < n; ++held) {
    if (held > 0) copy_row(held - 1, held - 1);
    JUGGLER_RETURN_IF_ERROR(NonNegativeLeastSquares(fold, fold_values, &coef));
    const double actual = values[held];
    if (actual != 0.0) {
      // The held-out prediction, summed as Predict() sums it.
      double predicted = 0.0;
      for (int c = 0; c < k; ++c) predicted += coef[c] * design(held, c);
      error_sum += std::fabs(predicted - actual) / std::fabs(actual);
      ++folds;
    }
  }
  if (folds == 0) {
    return Status::FailedPrecondition(
        "LeaveOneOutError: every observation is zero");
  }
  return error_sum / folds;
}

StatusOr<LinearModel> SelectModelByCrossValidation(
    std::vector<LinearModel> candidates, const std::vector<Observation>& data) {
  if (data.empty()) {
    return Status::InvalidArgument("SelectModelByCrossValidation: no data");
  }
  double best_error = std::numeric_limits<double>::infinity();
  int best_index = -1;
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    auto error = LeaveOneOutError(candidates[ci], data);
    if (error.ok() && *error < best_error) {
      best_error = *error;
      best_index = static_cast<int>(ci);
    }
  }

  if (best_index < 0) {
    return Status::NotFound(
        "SelectModelByCrossValidation: no candidate family could be fitted");
  }
  LinearModel best = candidates[static_cast<size_t>(best_index)];
  JUGGLER_RETURN_IF_ERROR(best.Fit(data));
  return best;
}

}  // namespace juggler::math
