#include "workloads/workloads.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"
#include "minispark/cache_plan.h"

namespace juggler::workloads {

using minispark::CacheOp;
using minispark::CachePlan;
using minispark::DagBuilder;
using minispark::DatasetId;

namespace {

/// HiBench text inputs weigh ~7.45 bytes per matrix value (sign, digits,
/// separators); this reproduces Table 1's input sizes from (e, f).
constexpr double kTextBytesPerValue = 7.45;

/// CPU cost coefficients, ms per matrix value. Parsing text into doubles is
/// the expensive step (~450 ns/value on the simulated cores); per-iteration
/// gradient math is an order of magnitude cheaper. These magnitudes yield
/// the paper's ~97x recompute-vs-cached-read task-time ratio.
constexpr double kParseMsPerValue = 4.5e-4;
constexpr double kMapMsPerValue = 2.0e-5;
constexpr double kGradMsPerValue = 1.0e-5;

/// HDFS block size: tasks read 64 MiB splits (SVM's 23.8 GB input yields
/// ~380 partitions, near the paper's 362).
constexpr double kSourceBlockBytes = MiB(64);

int SourcePartitions(double bytes) {
  return std::max(4, static_cast<int>(std::ceil(bytes / kSourceBlockBytes)));
}

/// Shape of one iteration's gradient job, shared by the regression-style
/// workloads: apply-weights + gradient map over `data`, a tree aggregation
/// to the driver, and `extra_narrow` cheap bookkeeping datasets to mirror
/// the real library's per-iteration RDD count (Table 1's dataset totals).
struct GradientIterSpec {
  DatasetId data = minispark::kInvalidDataset;
  double map_ms = 0.0;       ///< Total CPU of the gradient map.
  double map_bytes = 0.0;    ///< Bytes of the gradient map output.
  double exec_mem = 0.0;     ///< Execution memory per task of the map.
  double vector_bytes = 0.0; ///< Aggregated model-vector size (8*f).
  int extra_narrow = 0;
  int agg_fanin = 16;
};

void AddGradientIteration(DagBuilder* b, int iter, const GradientIterSpec& s) {
  const std::string tag = "it" + std::to_string(iter);
  DatasetId prev = b->AddNarrow(tag + "/apply-weights", {s.data}, s.map_bytes,
                                0.3 * s.map_ms);
  prev = b->AddNarrow(tag + "/gradient-map", {prev}, s.map_bytes,
                      0.7 * s.map_ms, s.exec_mem);
  for (int x = 0; x < s.extra_narrow; ++x) {
    prev = b->AddNarrow(tag + "/step" + std::to_string(x), {prev}, s.map_bytes,
                        0.02 * s.map_ms);
  }
  const int parent_parts = b->app().dataset(prev).num_partitions;
  const int fanin = std::max(1, std::min(s.agg_fanin, parent_parts));
  prev = b->AddWide(tag + "/tree-partial", {prev},
                    s.vector_bytes * static_cast<double>(fanin),
                    0.05 * s.map_ms, fanin);
  prev = b->AddWide(tag + "/tree-final", {prev}, s.vector_bytes,
                    0.01 * s.map_ms, 1);
  b->AddJob(tag + "/gradient", prev, s.vector_bytes);
}

/// MakeRandomApplication's shape: prep-chain datasets jobs may reuse, the
/// longest private narrow/wide tail per job, the largest source or shared
/// dataset, and the chance that a transformation is wide.
constexpr int kRandomSharedDatasets = 8;
constexpr int kRandomMaxChainPerJob = 4;
constexpr double kRandomMaxDatasetBytes = MiB(512);
constexpr double kRandomWideProbability = 0.25;

}  // namespace

Application MakeLinearRegression(const AppParams& params) {
  const double ef = params.examples * params.features;
  DagBuilder b("lir");
  b.SetParams(params);

  // Prep: the HiBench LIR developers cache nothing; iterations re-read the
  // parsed input (Figure 1's motivating defect).
  const DatasetId src = b.AddSource("input", kTextBytesPerValue * ef,
                                    SourcePartitions(kTextBytesPerValue * ef));
  const DatasetId parsed =
      b.AddNarrow("parsed-points", {src}, 8.0 * ef, kParseMsPerValue * ef);
  const DatasetId count_child =
      b.AddNarrow("count-probe", {parsed}, 1.0, 1e-6 * ef);
  // A smaller derived dataset reused by the evaluation jobs (the paper's
  // LIR caches two datasets in SCHEDULE #2).
  const DatasetId holdout =
      b.AddNarrow("holdout-features", {parsed}, 4.0 * ef, kMapMsPerValue * ef);
  b.AddJob("count", count_child, 64.0);

  // Summary-statistics job over the holdout features.
  {
    const DatasetId stats_map = b.AddNarrow(
        "stats-map", {holdout}, 64.0 * params.features, 0.5 * kMapMsPerValue * ef);
    const DatasetId stats_agg = b.AddWide("stats-agg", {stats_map},
                                          8.0 * params.features, 1e3, 1);
    b.AddJob("feature-stats", stats_agg, 8.0 * params.features);
  }

  // Evaluation datasets are created before the per-iteration datasets so
  // that every dataset with a stable role keeps a stable id across
  // iteration counts (training runs vary the iteration count; Juggler's
  // models are keyed by dataset id). The eval *jobs* still run last. Each
  // job has its own prediction tail (computed once), so the only shared
  // evaluation dataset is the sizeable holdout itself.
  std::vector<DatasetId> metrics;
  for (int k = 0; k < 3; ++k) {
    const DatasetId predictions =
        b.AddNarrow("metric" + std::to_string(k) + "-predictions", {holdout},
                    16.0 * params.examples, 0.5 * kMapMsPerValue * ef);
    metrics.push_back(b.AddWide("metric" + std::to_string(k), {predictions},
                                64.0, 1.0, 1));
  }

  // Iterative SGD jobs directly over the parsed input.
  GradientIterSpec iter;
  iter.data = parsed;
  iter.map_ms = kGradMsPerValue * ef;
  iter.map_bytes = 8.0 * params.features *
                   b.app().dataset(parsed).num_partitions;
  iter.exec_mem = MiB(250);
  iter.vector_bytes = 8.0 * params.features;
  iter.extra_narrow = 6;  // LIR's library code creates ~10 RDDs an iteration.
  for (int i = 0; i < params.iterations; ++i) AddGradientIteration(&b, i, iter);

  // Three evaluation jobs over the holdout features, sharing prediction and
  // residual datasets (shared tails make them intermediates).
  for (int k = 0; k < 3; ++k) {
    b.AddJob("eval-metric" + std::to_string(k), metrics[static_cast<size_t>(k)],
             64.0);
  }

  b.SetDefaultPlan(CachePlan{});  // HiBench LIR caches nothing.
  return std::move(b).Build();
}

Application MakeLogisticRegression(const AppParams& params) {
  const double ef = params.examples * params.features;
  DagBuilder b("lor");
  b.SetParams(params);

  const DatasetId src = b.AddSource("input", kTextBytesPerValue * ef,
                                    SourcePartitions(kTextBytesPerValue * ef));
  const DatasetId parsed =                                        // D1
      b.AddNarrow("parsed-points", {src}, 8.0 * ef, kParseMsPerValue * ef);
  const DatasetId labeled =                                       // D2
      b.AddNarrow("labeled-points", {parsed}, 6.0 * ef, kMapMsPerValue * ef);

  // Job 0: count over the labeled points (materializes the HiBench cache).
  const DatasetId count_child = b.AddNarrow("count-probe", {labeled}, 1.0, 1e-6 * ef);
  b.AddJob("count", count_child, 64.0);

  // Jobs 1-2: MLlib's MultivariateOnlineSummarizer passes (mean, std), each
  // a map + tree aggregation over the labeled points.
  DatasetId last_stats = minispark::kInvalidDataset;
  for (int k = 0; k < 2; ++k) {
    const std::string tag = k == 0 ? "summary-mean" : "summary-std";
    const DatasetId m = b.AddNarrow(tag + "-map", {labeled},
                                    64.0 * params.features,
                                    0.5 * kMapMsPerValue * ef, MiB(64));
    const DatasetId p = b.AddWide(tag + "-partial", {m}, 8.0 * params.features * 8,
                                  1e2, 8);
    const DatasetId a = b.AddWide(tag, {p}, 8.0 * params.features, 10.0, 1);
    b.AddJob(tag, a, 8.0 * params.features);
    last_stats = a;
  }
  (void)last_stats;

  // D11-analog: the standardized instances MLlib caches internally; every
  // LBFGS iteration reads it.
  // Same size as the labeled points (the paper's D2 and D11 weigh 45.961
  // and 45.975 MB in the sample run) — which is what makes the p(2)-only
  // and p(1) p(2) schedules equal-cost and triggers the dedup.
  const DatasetId scaled =
      b.AddNarrow("std-instances", {labeled}, 6.0 * ef, 1.5 * kMapMsPerValue * ef);

  // Evaluation datasets created before the iteration datasets (stable ids);
  // the evaluation job itself runs after the iterations.
  const DatasetId pred = b.AddNarrow("predictions", {parsed},
                                     16.0 * params.examples, kMapMsPerValue * ef);
  const DatasetId accuracy = b.AddWide("accuracy", {pred}, 64.0, 1.0, 1);

  GradientIterSpec iter;
  iter.data = scaled;
  iter.map_ms = kGradMsPerValue * ef;
  iter.map_bytes = 8.0 * params.features * b.app().dataset(scaled).num_partitions;
  iter.exec_mem = MiB(300);
  iter.vector_bytes = 8.0 * params.features;
  iter.extra_narrow = 0;  // LOR's iteration creates ~4 RDDs.
  for (int i = 0; i < params.iterations; ++i) AddGradientIteration(&b, i, iter);

  // Final evaluation over the raw parsed data (not the standardized copy).
  b.AddJob("evaluate", accuracy, 64.0);

  CachePlan hibench;
  hibench.ops = {CacheOp::Persist(labeled), CacheOp::Persist(scaled)};
  b.SetDefaultPlan(hibench);
  return std::move(b).Build();
}

Application MakePca(const AppParams& params) {
  const double ef = params.examples * params.features;
  DagBuilder b("pca");
  b.SetParams(params);

  const DatasetId src = b.AddSource("input", kTextBytesPerValue * ef,
                                    SourcePartitions(kTextBytesPerValue * ef));
  const DatasetId parsed =                                        // D1
      b.AddNarrow("parsed-rows", {src}, 8.0 * ef, kParseMsPerValue * ef);
  const DatasetId normalized =                                    // D2
      b.AddNarrow("normalized-rows", {parsed}, 8.0 * ef, kMapMsPerValue * ef);

  // Early jobs give D1 and D2 children besides the main chain (so neither is
  // a single child when Algorithm 1 builds schedules).
  const DatasetId count_child = b.AddNarrow("count-probe", {parsed}, 1.0, 1e-7 * ef);
  b.AddJob("count", count_child, 64.0);
  {
    const DatasetId mean_map = b.AddNarrow("col-means-map", {normalized},
                                           8.0 * params.features * 4, 0.3 * kMapMsPerValue * ef);
    const DatasetId mean = b.AddWide("col-means", {mean_map}, 8.0 * params.features, 1.0, 1);
    b.AddJob("col-means", mean, 8.0 * params.features);
  }

  // Conversion chain down to the row-matrix representation the power
  // iterations consume; a mid-chain dataset is probed by one extra job so
  // the workload has five intermediates like Table 1.
  DatasetId chain = normalized;
  const DatasetId vectors = b.AddNarrow("dense-vectors", {chain}, 8.0 * ef,
                                        0.5 * kMapMsPerValue * ef);
  const DatasetId probe = b.AddNarrow("dim-probe", {vectors}, 1.0, 1e-7 * ef);
  b.AddJob("dimensions", probe, 64.0);
  DatasetId matrix = vectors;
  for (int k = 0; k < 3; ++k) {
    matrix = b.AddNarrow("row-matrix-" + std::to_string(k), {matrix}, 8.0 * ef,
                         0.1 * kMapMsPerValue * ef);
  }
  // `matrix` is the D13-analog every power iteration multiplies against.

  // Power-iteration jobs: a long per-iteration chain of small datasets (the
  // real PCA creates ~18 RDDs per iteration — hence Table 1's 1833).
  for (int i = 0; i < params.iterations; ++i) {
    const std::string tag = "pow" + std::to_string(i);
    DatasetId prev = b.AddNarrow(tag + "/multiply", {matrix}, 8.0 * params.examples,
                                 0.5 * kGradMsPerValue * ef, MiB(50));
    for (int x = 0; x < 13; ++x) {
      prev = b.AddNarrow(tag + "/op" + std::to_string(x), {prev},
                         8.0 * params.examples, 0.01 * kGradMsPerValue * ef);
    }
    prev = b.AddWide(tag + "/partial", {prev}, 8.0 * params.features * 4, 1.0, 4);
    prev = b.AddWide(tag + "/combine", {prev}, 8.0 * params.features, 1.0, 1);
    const DatasetId normalized_v = b.AddNarrow(tag + "/normalize", {prev},
                                               8.0 * params.features, 0.1);
    b.AddJob(tag, normalized_v, 8.0 * params.features);
  }

  CachePlan hibench;
  hibench.ops = {CacheOp::Persist(normalized)};
  b.SetDefaultPlan(hibench);
  return std::move(b).Build();
}

Application MakeRandomForest(const AppParams& params) {
  const double ef = params.examples * params.features;
  DagBuilder b("rfc");
  b.SetParams(params);

  const DatasetId src = b.AddSource("input", kTextBytesPerValue * ef,
                                    SourcePartitions(kTextBytesPerValue * ef));
  const DatasetId parsed =                                        // D1
      b.AddNarrow("parsed-points", {src}, 8.0 * ef, kParseMsPerValue * ef);

  const DatasetId count_child = b.AddNarrow("count-probe", {parsed}, 1.0, 1e-6 * ef);
  b.AddJob("count", count_child, 64.0);

  // Metadata pass: per-feature bins/statistics, aggregated to the driver
  // and broadcast (as MLlib does) — the metadata datasets are computed once
  // and are not caching candidates.
  {
    const DatasetId meta_map = b.AddNarrow("metadata-map", {parsed},
                                           64.0 * params.features,
                                           0.8 * kMapMsPerValue * ef, MiB(128));
    const DatasetId metadata = b.AddWide("metadata", {meta_map},
                                         24.0 * params.features, 1e2, 8);
    const DatasetId splits = b.AddNarrow("feature-splits", {metadata},
                                         16.0 * params.features, 10.0);
    b.AddJob("metadata", splits, 8.0 * params.features);
  }

  // Tree points and bagged points; MLlib caches the bagged points (D12).
  // The tree points are also read by the final evaluation, making them an
  // intermediate dataset in their own right (the paper's schedule #1
  // caches them alone).
  const DatasetId tree_points =                                   // D11-analog
      b.AddNarrow("tree-points", {parsed}, 9.0 * ef,
                  1.2 * kMapMsPerValue * ef);
  const DatasetId bagged =                                        // D12-analog
      b.AddNarrow("bagged-points", {tree_points}, 10.0 * ef,
                  0.8 * kMapMsPerValue * ef);

  // Out-of-bag evaluation datasets (stable ids before iteration datasets).
  const DatasetId oob_pred = b.AddNarrow("oob-predictions", {tree_points},
                                         16.0 * params.examples,
                                         kMapMsPerValue * ef);
  const DatasetId oob_error = b.AddWide("oob-error", {oob_pred}, 64.0, 1.0, 1);

  // One job per tree level: collect split statistics over the bagged
  // points, aggregate in two shuffle rounds (treeAggregate with depth 2)
  // and derive the chosen splits — four RDDs per level, as in MLlib.
  for (int i = 0; i < params.iterations; ++i) {
    const std::string tag = "level" + std::to_string(i);
    const DatasetId split_map = b.AddNarrow(tag + "/split-stats", {bagged},
                                            128.0 * params.features,
                                            3.0 * kGradMsPerValue * ef, MiB(400));
    const DatasetId partial = b.AddWide(tag + "/partial-splits", {split_map},
                                        96.0 * params.features, 1e2, 8);
    const DatasetId split_agg = b.AddWide(tag + "/best-splits", {partial},
                                          64.0 * params.features, 1e2, 1);
    const DatasetId chosen = b.AddNarrow(tag + "/chosen", {split_agg},
                                         8.0 * params.features, 1.0);
    b.AddJob(tag, chosen, 8.0 * params.features);
  }

  b.AddJob("evaluate", oob_error, 64.0);

  CachePlan hibench;
  hibench.ops = {CacheOp::Persist(bagged)};
  b.SetDefaultPlan(hibench);
  return std::move(b).Build();
}

Application MakeSvm(const AppParams& params) {
  const double ef = params.examples * params.features;
  DagBuilder b("svm");
  b.SetParams(params);

  const DatasetId src = b.AddSource("input", kTextBytesPerValue * ef,
                                    SourcePartitions(kTextBytesPerValue * ef));
  const DatasetId parsed =                                        // D1
      b.AddNarrow("parsed-points", {src}, 12.8 * ef, kParseMsPerValue * ef);
  // D2-analog: the 35.7 GB labeled dataset HiBench caches (11.16 B/value at
  // the paper's 40k x 80k); slightly smaller than its parent (dropped
  // columns), which is what puts it ahead of the parent on benefit-cost
  // ratio, as in the paper.
  const DatasetId labeled =
      b.AddNarrow("labeled-points", {parsed}, 11.96 * ef, kMapMsPerValue * ef);

  const DatasetId count_child = b.AddNarrow("count-probe", {labeled}, 1.0, 1e-6 * ef);
  b.AddJob("count", count_child, 64.0);

  // Feature-scaler statistics pass.
  {
    const DatasetId m = b.AddNarrow("scaler-map", {labeled}, 64.0 * params.features,
                                    0.5 * kMapMsPerValue * ef, MiB(64));
    const DatasetId a = b.AddWide("scaler-stats", {m}, 8.0 * params.features, 1e2, 1);
    b.AddJob("scaler", a, 8.0 * params.features);
  }

  // D6-analog: MLlib's scaled instances, read by each SGD iteration. Kept
  // slightly below the labeled dataset so schedule #2 (both cached) still
  // fits the 12-machine ceiling, as in the paper's Figure 9e.
  const DatasetId scaled =
      b.AddNarrow("scaled-instances", {labeled}, 10.5 * ef,
                  1.5 * kMapMsPerValue * ef);

  // Evaluation datasets created before iteration datasets (stable ids); the
  // two eval jobs run after the iterations, each with its own prediction
  // tail (each computed once — not caching candidates).
  std::vector<DatasetId> metrics;
  for (int k = 0; k < 2; ++k) {
    const DatasetId pred =
        b.AddNarrow("metric" + std::to_string(k) + "-predictions", {labeled},
                    16.0 * params.examples, kMapMsPerValue * ef);
    metrics.push_back(b.AddWide("metric" + std::to_string(k), {pred}, 64.0,
                                1.0, 1));
  }

  GradientIterSpec iter;
  iter.data = scaled;
  iter.map_ms = kGradMsPerValue * ef;
  iter.map_bytes = 8.0 * params.features * b.app().dataset(scaled).num_partitions;
  iter.exec_mem = MiB(350);  // ~20 % of M at the paper's 12 GB executors.
  iter.vector_bytes = 8.0 * params.features;
  iter.extra_narrow = 1;  // SVM's iteration creates ~5 RDDs.
  for (int i = 0; i < params.iterations; ++i) AddGradientIteration(&b, i, iter);

  for (int k = 0; k < 2; ++k) {
    b.AddJob("eval-metric" + std::to_string(k), metrics[static_cast<size_t>(k)],
             64.0);
  }

  CachePlan hibench;
  hibench.ops = {CacheOp::Persist(labeled)};
  b.SetDefaultPlan(hibench);
  return std::move(b).Build();
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads{
      {"lir", AppParams{40e3, 120e3, 10}, MakeLinearRegression},
      {"lor", AppParams{70e3, 50e3, 50}, MakeLogisticRegression},
      {"pca", AppParams{6e3, 5e3, 100}, MakePca},
      {"rfc", AppParams{100e3, 40e3, 3}, MakeRandomForest},
      {"svm", AppParams{40e3, 80e3, 100}, MakeSvm},
  };
  return kWorkloads;
}

StatusOr<Workload> GetWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return Status::NotFound("unknown workload: " + name);
}

Application MakeRandomApplication(Rng* rng, const RandomAppOptions& options) {
  DagBuilder b("random");
  b.SetParams(AppParams{1e3, 1e2, 1});

  std::vector<DatasetId> pool;
  const DatasetId src = b.AddSource("src", rng->Uniform(MiB(1), kRandomMaxDatasetBytes),
                                    static_cast<int>(rng->UniformInt(1, 16)));
  pool.push_back(src);

  for (int i = 0; i < kRandomSharedDatasets; ++i) {
    const DatasetId parent = pool[rng->UniformInt(pool.size())];
    const double bytes = rng->Uniform(MiB(1), kRandomMaxDatasetBytes);
    const double compute = rng->Uniform(10.0, 5e4);
    DatasetId id;
    if (rng->Bernoulli(kRandomWideProbability)) {
      id = b.AddWide("shared" + std::to_string(i), {parent}, bytes, compute,
                     static_cast<int>(rng->UniformInt(1, 8)));
    } else {
      id = b.AddNarrow("shared" + std::to_string(i), {parent}, bytes, compute);
    }
    pool.push_back(id);
  }

  for (int j = 0; j < options.num_jobs; ++j) {
    DatasetId prev = pool[rng->UniformInt(pool.size())];
    const int chain =
        static_cast<int>(rng->UniformInt(1, kRandomMaxChainPerJob));
    for (int k = 0; k < chain; ++k) {
      const double bytes = rng->Uniform(1024.0, MiB(64));
      const double compute = rng->Uniform(1.0, 1e4);
      std::string name = "j";
      name += std::to_string(j);
      name += 'c';
      name += std::to_string(k);
      if (rng->Bernoulli(kRandomWideProbability)) {
        prev = b.AddWide(name, {prev}, bytes, compute,
                         static_cast<int>(rng->UniformInt(1, 8)));
      } else {
        prev = b.AddNarrow(name, {prev}, bytes, compute);
      }
    }
    b.AddJob("job" + std::to_string(j), prev, 64.0);
  }
  return std::move(b).Build();
}

}  // namespace juggler::workloads
