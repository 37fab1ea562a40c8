#ifndef JUGGLER_WORKLOADS_WORKLOADS_H_
#define JUGGLER_WORKLOADS_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "minispark/application.h"

namespace juggler::workloads {

using minispark::Application;
using minispark::AppParams;

/// \brief One of the five evaluated HiBench-like applications (paper
/// Table 1): a named factory that instantiates the application DAG for
/// concrete parameters, plus the paper's evaluation parameters.
struct Workload {
  std::string name;
  /// The paper's actual-run parameters (Table 1).
  AppParams paper_params;
  /// Builds the application for arbitrary parameters. The returned
  /// Application carries the HiBench developer-cached datasets as its
  /// default plan.
  std::function<Application(const AppParams&)> make;
};

/// The five evaluated applications: lir, lor, pca, rfc, svm.
const std::vector<Workload>& AllWorkloads();

/// Looks a workload up by name.
[[nodiscard]] StatusOr<Workload> GetWorkload(const std::string& name);

/// \brief Linear Regression (HiBench LIR). The developers cache nothing; the
/// large parsed input is re-read in every iteration (paper Figure 1).
Application MakeLinearRegression(const AppParams& params);

/// \brief Logistic Regression (HiBench LOR). Developers cache the labeled
/// points and MLlib internally caches the standardized instances (the
/// paper's Figure 4 running example).
Application MakeLogisticRegression(const AppParams& params);

/// \brief Principal Components Analysis (HiBench PCA). Tiny datasets, many
/// short jobs; all cached data fits on a single machine.
Application MakePca(const AppParams& params);

/// \brief Random Forest Classifier (HiBench RFC). Few iterations; MLlib
/// caches the bagged tree points.
Application MakeRandomForest(const AppParams& params);

/// \brief Support Vector Machine (HiBench SVM). Developers cache one large
/// labeled dataset (the paper's Figure 2 motivating example).
Application MakeSvm(const AppParams& params);

/// \brief Options for the synthetic random-DAG generator used by property
/// tests: arbitrary but valid applications with shared intermediates.
struct RandomAppOptions {
  int num_jobs = 6;
};

/// Generates a random valid application (Validate() always passes).
Application MakeRandomApplication(Rng* rng, const RandomAppOptions& options);

}  // namespace juggler::workloads

#endif  // JUGGLER_WORKLOADS_WORKLOADS_H_
