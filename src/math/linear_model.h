#ifndef JUGGLER_MATH_LINEAR_MODEL_H_
#define JUGGLER_MATH_LINEAR_MODEL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace juggler::math {

/// \brief One training observation: parameter vector -> observed value.
///
/// For the paper's ML workloads the parameter vector is
/// {examples (P1), features (P2)}, but nothing here assumes arity 2 so new
/// parameter classes (e.g. #vertices/#edges for graphs) can be added.
struct Observation {
  std::vector<double> params;
  double value = 0.0;
};

/// \brief A linear-in-coefficients model: y = sum_k theta_k * basis_k(params).
///
/// A model family is the basis-function list; fitting finds non-negative
/// coefficients (the paper enforces positive bounds via curve_fit).
class LinearModel {
 public:
  using BasisFn = std::function<double(const std::vector<double>&)>;

  LinearModel(std::string name, std::vector<BasisFn> basis,
              std::vector<std::string> term_names);

  const std::string& name() const { return name_; }
  int num_terms() const { return static_cast<int>(basis_.size()); }
  bool fitted() const { return fitted_; }
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Value of basis term `c` at `params` (one column of the design matrix).
  double Term(int c, const std::vector<double>& params) const {
    return basis_[c](params);
  }

  /// Fits non-negative coefficients to the observations. Requires at least
  /// as many observations as terms.
  [[nodiscard]] Status Fit(const std::vector<Observation>& data);

  /// Installs externally-obtained coefficients (model deserialization).
  [[nodiscard]] Status SetCoefficients(std::vector<double> coefficients);

  /// Predicted value for a parameter vector. Requires fitted().
  double Predict(const std::vector<double>& params) const;

  /// Human-readable fitted form, e.g. "size = 1.2e-3*e*f + 4.0*e".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<BasisFn> basis_;
  std::vector<std::string> term_names_;
  std::vector<double> coefficients_;
  bool fitted_ = false;
};

/// \brief The paper's four dataset-size model families (§5.2):
///   size = t0*e*f
///   size = t0*e + t1*e*f
///   size = t0*f + t1*e*f
///   size = t0 + t1*e + t2*e*f
/// where e = #examples and f = #features.
std::vector<LinearModel> MakeSizeModelFamilies();

/// \brief Looks a model family up by name across the size and time
/// families ("size~e+e*f", "time~f^2+e*f", ...). Used by deserialization.
[[nodiscard]] StatusOr<LinearModel> MakeModelFamilyByName(const std::string& name);

/// \brief The paper's four execution-time model families (§5.4):
///   time = t0*e*f
///   time = t0 + t1*e*f
///   time = t0*f + t1*e*f
///   time = t0*f^2 + t1*e*f
std::vector<LinearModel> MakeTimeModelFamilies();

/// \brief Mean relative absolute error of a fitted model on a dataset:
/// avg(|pred - actual| / actual). Observations with value 0 are skipped.
double MeanRelativeError(const LinearModel& model,
                         const std::vector<Observation>& data);

/// \brief Leave-one-out error of one model family (§5.2): holds out each
/// observation in turn, fits the family on the rest (in their original
/// order), and averages |pred - actual| / |actual| over the held-out
/// observations with a nonzero value.
///
/// Returns FailedPrecondition when there are no more observations than
/// terms, or every observation is zero.
[[nodiscard]] StatusOr<double> LeaveOneOutError(
    const LinearModel& family, const std::vector<Observation>& data);

/// \brief Leave-one-out cross-validation model selection (§5.2): for each
/// candidate family, hold out each observation in turn, fit on the rest,
/// average the held-out relative errors; return the family with the least
/// error refitted on all observations.
///
/// Returns NotFound if no candidate can be fitted.
[[nodiscard]] StatusOr<LinearModel> SelectModelByCrossValidation(
    std::vector<LinearModel> candidates, const std::vector<Observation>& data);

}  // namespace juggler::math

#endif  // JUGGLER_MATH_LINEAR_MODEL_H_
