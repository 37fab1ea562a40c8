#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_metrics.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "minispark/engine.h"
#include "online/feedback_collector.h"
#include "online/model_publisher.h"
#include "online/observation.h"
#include "online/online_loop.h"
#include "online/online_metrics.h"
#include "online/refit_engine.h"
#include "service/model_registry.h"
#include "test_models.h"

namespace juggler::online {
namespace {

namespace fs = std::filesystem;
using core::TrainedJuggler;
using minispark::AppParams;
using test::MakeModelDir;
using test::SaveModel;
using test::TrainSmall;

/// The same model with every time-model coefficient scaled: a deployed model
/// gone stale, predicting `scale`x the true run time.
TrainedJuggler PerturbTimeModels(const TrainedJuggler& model, double scale) {
  std::vector<math::LinearModel> perturbed = model.time_models();
  for (math::LinearModel& m : perturbed) {
    std::vector<double> coeffs = m.coefficients();
    for (double& c : coeffs) c *= scale;
    EXPECT_TRUE(m.SetCoefficients(std::move(coeffs)).ok());
  }
  return TrainedJuggler(model.app_name(), model.schedules(), model.sizes(),
                        model.memory(), std::move(perturbed));
}

/// Run-time observations drawn from `truth`'s own predictions across a small
/// parameter grid, `value_scale`x inflated — live traffic following a known
/// law the time-model families can fit exactly.
std::vector<Observation> TruthObservations(const TrainedJuggler& truth,
                                           double value_scale = 1.0) {
  std::vector<Observation> out;
  for (double examples : {4000.0, 8000.0, 16000.0, 24000.0}) {
    for (double features : {1000.0, 2000.0, 4000.0}) {
      for (size_t i = 0; i < truth.schedules().size(); ++i) {
        Observation o;
        o.kind = ObservationKind::kRunTime;
        o.app = truth.app_name();
        o.target = truth.schedules()[i].id;
        o.params = AppParams{examples, features, 5};
        o.value =
            value_scale * truth.time_models()[i].Predict({examples, features});
        if (o.value <= 0.0) continue;
        out.push_back(std::move(o));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Wire format

Observation SampleObservation() {
  Observation o;
  o.kind = ObservationKind::kRunTime;
  o.app = "svm";
  o.target = 3;
  o.params = AppParams{40000, 80000, 7};
  o.model_version = 12;
  o.value = 812.5;
  o.predicted = 790.0;
  return o;
}

TEST(ObservationWireTest, RoundTripsEveryKind) {
  std::vector<Observation> batch;
  batch.push_back(SampleObservation());
  {
    Observation o = SampleObservation();
    o.kind = ObservationKind::kDatasetSize;
    o.app = "pca";
    o.target = -2;  // Targets are opaque i32s; negatives must survive.
    o.value = 1.5e9;
    o.predicted = 0.0;
    batch.push_back(o);
  }

  const std::string bytes = EncodeObservationBatch(batch);
  auto decoded = DecodeObservationBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*decoded)[i].kind, batch[i].kind) << i;
    EXPECT_EQ((*decoded)[i].app, batch[i].app) << i;
    EXPECT_EQ((*decoded)[i].target, batch[i].target) << i;
    EXPECT_EQ((*decoded)[i].params.examples, batch[i].params.examples) << i;
    EXPECT_EQ((*decoded)[i].params.features, batch[i].params.features) << i;
    EXPECT_EQ((*decoded)[i].params.iterations, batch[i].params.iterations) << i;
    EXPECT_EQ((*decoded)[i].model_version, batch[i].model_version) << i;
    EXPECT_EQ((*decoded)[i].value, batch[i].value) << i;
    EXPECT_EQ((*decoded)[i].predicted, batch[i].predicted) << i;
  }
  // The decoder's oracle: an accepted batch re-encodes to the same bytes.
  EXPECT_EQ(EncodeObservationBatch(*decoded), bytes);
}

TEST(ObservationWireTest, EncoderSkipsUnencodableRecords) {
  std::vector<Observation> batch;
  batch.push_back(SampleObservation());
  {
    Observation o = SampleObservation();
    o.app.clear();  // Empty app cannot round-trip.
    batch.push_back(o);
  }
  {
    Observation o = SampleObservation();
    o.value = std::nan("");  // Non-finite numbers are rejected, not emitted.
    batch.push_back(o);
  }
  auto decoded = DecodeObservationBatch(EncodeObservationBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), 1u);
}

TEST(ObservationWireTest, RejectsMalformedBytes) {
  const std::string good = EncodeObservationBatch({SampleObservation()});
  ASSERT_TRUE(DecodeObservationBatch(good).ok());

  struct Case {
    const char* name;
    std::string wire;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", ""});
  cases.push_back({"short header", good.substr(0, 7)});
  for (size_t cut = kObservationBatchHeaderBytes; cut < good.size(); ++cut) {
    cases.push_back({"truncated body", good.substr(0, cut)});
  }
  cases.push_back({"trailing byte", good + "x"});
  {
    std::string wire = good;
    wire[0] = 'X';
    cases.push_back({"bad magic", wire});
  }
  {
    std::string wire = good;
    wire[4] = 2;
    cases.push_back({"future format version", wire});
  }
  {
    std::string wire = good;
    wire[5] = 1;
    cases.push_back({"reserved header byte set", wire});
  }
  {
    std::string wire = good;
    wire[11] = 2;  // Count says 2, payload holds 1.
    cases.push_back({"count past payload", wire});
  }
  {
    std::string wire = good;
    wire[kObservationBatchHeaderBytes] = 99;
    cases.push_back({"unknown kind", wire});
  }
  {
    std::string wire = good;
    wire[kObservationBatchHeaderBytes] = 3;  // Serving latency, never a kind.
    cases.push_back({"kind 3", wire});
  }
  {
    std::string wire = good;
    wire[kObservationBatchHeaderBytes + 1] = 1;
    cases.push_back({"reserved record byte set", wire});
  }
  {
    std::string wire = good;
    wire[kObservationBatchHeaderBytes + 2] = 0;
    wire[kObservationBatchHeaderBytes + 3] = 0;
    cases.push_back({"zero app length", wire});
  }
  {
    std::string wire = good;
    // examples = -inf: sign bit plus exponent bits.
    for (int i = 0; i < 8; ++i) {
      wire[kObservationBatchHeaderBytes + 20 + i] = (i < 2) ? '\xff' : '\x00';
    }
    wire[kObservationBatchHeaderBytes + 21] = '\xf0';
    cases.push_back({"non-finite examples", wire});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_FALSE(DecodeObservationBatch(c.wire).ok());
  }
}

TEST(ObservationWireTest, HostileCountCannotForceAllocation) {
  // Header declaring the max record count with a one-byte body: the size
  // check must fire before any count-proportional work.
  std::string wire(kObservationMagic, sizeof(kObservationMagic));
  wire.push_back(static_cast<char>(kObservationFormatVersion));
  wire.append(3, '\0');
  wire.append({'\x00', '\x01', '\x00', '\x00'});  // 65536 records.
  wire.push_back('x');
  EXPECT_FALSE(DecodeObservationBatch(wire).ok());

  // One past the cap is rejected on the count alone.
  std::string over(kObservationMagic, sizeof(kObservationMagic));
  over.push_back(static_cast<char>(kObservationFormatVersion));
  over.append(3, '\0');
  over.append({'\x00', '\x01', '\x00', '\x01'});
  auto status = DecodeObservationBatch(over).status();
  EXPECT_NE(status.message().find("limit"), std::string::npos)
      << status.message();
}

// Online feedback must measure what stage 2 fits the size models on. A
// persisted wide dataset has no computed kMain record: its computed
// partitions are shuffle reads and its other reads are cache hits.
TEST(ObservationWireTest, ProfileExtractionMeasuresRunAndSizes) {
  minispark::DagBuilder b("wide");
  const auto src = b.AddSource("src", 64.0 * 1024 * 1024, 4);
  const auto parsed = b.AddNarrow("parsed", {src}, 32.0 * 1024 * 1024, 400.0);
  const auto agg = b.AddWide("agg", {parsed}, 8.0 * 1024 * 1024, 200.0);
  for (int i = 0; i < 2; ++i) {
    const std::string n = std::to_string(i);
    b.AddJob("job" + n, b.AddNarrow("use" + n, {agg}, 1024 * 1024, 50.0));
  }
  b.SetDefaultPlan(minispark::CachePlan{{minispark::CacheOp::Persist(agg)}});
  const minispark::Application app = std::move(b).Build();
  minispark::RunOptions options;
  options.instrument = true;
  options.noise_sigma = 0.0;
  options.straggler_prob = 0.0;
  auto run =
      minispark::Engine(options).RunDefault(app, minispark::TrainingNode());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->cache_hits, 0);

  auto batch = ObservationsFromProfile("wide", app.params, /*schedule_id=*/2,
                                       /*model_version=*/7, *run->profile);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto stage_two = core::MeasureDatasetSizes(*run->profile);
  ASSERT_TRUE(stage_two.ok());
  size_t run_times = 0;
  std::vector<double> sizes(stage_two->size(), 0.0);
  for (const Observation& o : *batch) {
    EXPECT_EQ(o.app, "wide");
    EXPECT_EQ(o.model_version, 7u);
    EXPECT_GT(o.value, 0.0);
    if (o.kind == ObservationKind::kRunTime) {
      ++run_times;
      EXPECT_EQ(o.target, 2);
    } else {
      ASSERT_EQ(o.kind, ObservationKind::kDatasetSize);
      sizes.at(static_cast<size_t>(o.target)) = o.value;
    }
  }
  EXPECT_EQ(run_times, 1u);
  EXPECT_EQ(sizes, *stage_two);
  const double agg_bytes = app.dataset(agg).bytes;
  EXPECT_NEAR(sizes[static_cast<size_t>(agg)], agg_bytes, 0.01 * agg_bytes);
}

TEST(ObservationWireTest, ProfileOfAnUnknownDatasetRejected) {
  minispark::ProfilingDb db;
  minispark::DatasetRecord src;
  src.id = 0;
  db.AddDataset(src);
  minispark::TransformRecord record;
  record.dataset = 3;  // Not in the profile's dataset list.
  db.AddTransform(record);
  EXPECT_FALSE(ObservationsFromProfile("svm", AppParams{1000, 100, 1}, 1, 1, db)
                   .ok());
}

// ---------------------------------------------------------------------------
// FeedbackCollector

Observation QuickObs(const std::string& app, double value) {
  Observation o;
  o.kind = ObservationKind::kRunTime;
  o.app = app;
  o.target = 1;
  o.params = AppParams{1000, 100, 1};
  o.value = value;
  return o;
}

TEST(FeedbackCollectorTest, RingDropsOldestUnderOverload) {
  FeedbackCollector collector({.capacity = 4});
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(collector.Add(QuickObs("svm", 100.0 + i)));
  }
  const auto stats = collector.GetStats();
  EXPECT_EQ(stats.ingested, 6u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.buffered, 4u);

  // The freshest four survive, oldest-first.
  const auto snapshot = collector.SnapshotApp("svm");
  ASSERT_EQ(snapshot.size(), 4u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].value, 102.0 + static_cast<double>(i));
  }
}

TEST(FeedbackCollectorTest, RejectsInvalidObservations) {
  FeedbackCollector collector({.capacity = 8});
  EXPECT_FALSE(collector.Add(QuickObs("", 1.0)));
  Observation nan = QuickObs("svm", 1.0);
  nan.value = std::nan("");
  EXPECT_FALSE(collector.Add(nan));
  const auto stats = collector.GetStats();
  EXPECT_EQ(stats.ingested, 0u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.buffered, 0u);
}

TEST(FeedbackCollectorTest, TakeAppIsScopedOrderedAndUncounted) {
  FeedbackCollector collector({.capacity = 16});
  collector.Add(QuickObs("svm", 1.0));
  collector.Add(QuickObs("pca", 2.0));
  collector.Add(QuickObs("svm", 3.0));
  collector.Add(QuickObs("pca", 4.0));
  EXPECT_EQ(collector.Apps(), (std::vector<std::string>{"pca", "svm"}));

  const auto taken = collector.TakeApp("svm");
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].value, 1.0);
  EXPECT_EQ(taken[1].value, 3.0);
  EXPECT_TRUE(collector.TakeApp("svm").empty());
  EXPECT_EQ(collector.Apps(), (std::vector<std::string>{"pca"}));
  // The other app's records stay buffered, oldest-first.
  const auto pca = collector.SnapshotApp("pca");
  ASSERT_EQ(pca.size(), 2u);
  EXPECT_EQ(pca[0].value, 2.0);
  EXPECT_EQ(pca[1].value, 4.0);
  // Consumed-by-refit removals are not losses.
  EXPECT_EQ(collector.GetStats().dropped, 0u);
  EXPECT_EQ(collector.GetStats().buffered, 2u);
}

TEST(FeedbackCollectorTest, EncodedBatchesAreAllOrNothing) {
  FeedbackCollector collector({.capacity = 16});
  const std::string good =
      EncodeObservationBatch({QuickObs("svm", 1.0), QuickObs("svm", 2.0)});
  ASSERT_TRUE(collector.AddEncoded(good).ok());
  EXPECT_EQ(collector.GetStats().buffered, 2u);

  EXPECT_FALSE(collector.AddEncoded(good.substr(0, good.size() - 1)).ok());
  EXPECT_EQ(collector.GetStats().buffered, 2u)
      << "a malformed batch must contribute nothing";
}

// ---------------------------------------------------------------------------
// RefitEngine

TEST(RefitEngineTest, TriggersRespectMinimums) {
  RefitEngine engine(
      {.min_records = 10, .interval_ms = 1000, .error_threshold = 0.5});
  EXPECT_FALSE(engine.CountTriggered(9));
  EXPECT_TRUE(engine.CountTriggered(10));

  // The interval trigger still needs a holdout's worth of data.
  EXPECT_FALSE(engine.IntervalTriggered(5000, engine.MinObservations() - 1));
  EXPECT_TRUE(engine.IntervalTriggered(5000, engine.MinObservations()));
  EXPECT_FALSE(engine.IntervalTriggered(500, engine.MinObservations()));

  std::vector<Observation> close;
  std::vector<Observation> far;
  for (size_t i = 0; i < engine.MinObservations(); ++i) {
    Observation o = QuickObs("svm", 100.0);
    o.predicted = 101.0;
    close.push_back(o);
    o.predicted = 250.0;
    far.push_back(o);
  }
  EXPECT_FALSE(engine.ErrorTriggered(close));
  EXPECT_TRUE(engine.ErrorTriggered(far));
  EXPECT_NEAR(RefitEngine::ObservedError(far), 1.5, 1e-9);
}

TEST(RefitEngineTest, RefitRecoversPerturbedModel) {
  const TrainedJuggler truth = TrainSmall("svm");
  const TrainedJuggler stale = PerturbTimeModels(truth, 4.0);
  const auto observations = TruthObservations(truth);

  RefitEngine engine({.min_records = 8});
  ASSERT_GE(observations.size(), engine.MinObservations());
  auto outcome = engine.Refit(stale, observations);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->accepted);
  EXPECT_GT(outcome->time_models_refit, 0u);
  EXPECT_LT(outcome->candidate_error, outcome->incumbent_error);
  // The stale model over-predicts 4x => relative holdout error near 3.
  EXPECT_GT(outcome->incumbent_error, 1.0);
  EXPECT_LT(outcome->candidate_error, 0.2);
}

TEST(RefitEngineTest, RejectsCandidateThatRegressesHoldout) {
  const TrainedJuggler truth = TrainSmall("svm");
  // Training split follows a 3x-inflated law, but the holdout (the most
  // recent observations) follows the truth the incumbent already models: the
  // candidate must lose the holdout comparison.
  std::vector<Observation> observations = TruthObservations(truth, 3.0);
  const std::vector<Observation> honest = TruthObservations(truth);
  const size_t holdout = observations.size() / 3;
  observations.insert(observations.end(), honest.end() - holdout,
                      honest.end());

  RefitEngine engine({.min_records = 8});
  auto outcome = engine.Refit(truth, observations);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->accepted);
  EXPECT_GT(outcome->candidate_error, outcome->incumbent_error);
}

TEST(RefitEngineTest, TooFewObservationsIsFailedPrecondition) {
  const TrainedJuggler truth = TrainSmall("svm");
  RefitEngine engine({.min_records = 4});
  std::vector<Observation> thin(TruthObservations(truth));
  thin.resize(engine.MinObservations() - 1);
  EXPECT_EQ(engine.Refit(truth, thin).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// ModelPublisher

TEST(ModelPublisherTest, PublishSwapsAtomicallyAndLeavesNoTempFiles) {
  const fs::path dir = MakeModelDir("online", "publish_swap");
  const TrainedJuggler truth = TrainSmall("svm");
  ModelPublisher publisher(dir.string());

  ASSERT_TRUE(publisher.Publish(truth).ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().filename().string(), "svm.model");
  }
  EXPECT_EQ(files, 1u);

  std::ifstream in(dir / "svm.model");
  auto loaded = core::LoadTrainedJuggler(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->app_name(), "svm");
  EXPECT_EQ(publisher.GetStats().publishes, 1u);
}

TEST(ModelPublisherTest, RollbackRestoresTheDisplacedArtifact) {
  const fs::path dir = MakeModelDir("online", "publish_rollback");
  const TrainedJuggler truth = TrainSmall("svm");
  const TrainedJuggler stale = PerturbTimeModels(truth, 4.0);
  ModelPublisher publisher(dir.string());

  ASSERT_TRUE(publisher.Publish(truth).ok());
  EXPECT_FALSE(publisher.HasLastGood("svm"))
      << "first publish displaces nothing";
  ASSERT_TRUE(publisher.Publish(stale).ok());
  ASSERT_TRUE(publisher.HasLastGood("svm"));

  ASSERT_TRUE(publisher.Rollback("svm").ok());
  std::ifstream in(dir / "svm.model");
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), core::TrainedJugglerToString(truth));
  const auto stats = publisher.GetStats();
  EXPECT_EQ(stats.publishes, 3u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ModelPublisherTest, RollbackWithoutStashIsNotFound) {
  ModelPublisher publisher(MakeModelDir("online", "publish_nostash").string());
  EXPECT_EQ(publisher.Rollback("svm").code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// OnlineJuggler end to end

struct LoopFixture {
  fs::path dir;
  std::shared_ptr<service::ModelRegistry> registry;
  TrainedJuggler truth;
  TrainedJuggler stale;

  explicit LoopFixture(const std::string& name)
      : dir(MakeModelDir("online", name)),
        truth(TrainSmall("svm")),
        stale(PerturbTimeModels(truth, 4.0)) {
    SaveModel(stale, dir / "svm.model");
    registry = std::make_shared<service::ModelRegistry>(dir.string());
    Status st = registry->Refresh();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

OnlineJuggler::Options SmallLoopOptions() {
  OnlineJuggler::Options options;
  options.refit.min_records = 12;
  options.refit.interval_ms = 0;
  return options;
}

TEST(OnlineJugglerTest, ConvergesOnLiveTrafficWithoutRestart) {
  ResetOnlineStatsForTest();
  LoopFixture f("converges");
  ASSERT_EQ(f.registry->version(), 1u);
  OnlineJuggler loop(f.registry, nullptr, SmallLoopOptions());

  const auto observations = TruthObservations(f.truth);
  EXPECT_EQ(loop.Observe(observations), observations.size());
  const auto cycle = loop.RunOnce();
  EXPECT_EQ(cycle.attempted, 1u);
  EXPECT_EQ(cycle.accepted, 1u);
  EXPECT_EQ(cycle.rejected, 0u);

  // The registry advanced mid-serve and now answers with the refit model.
  EXPECT_EQ(f.registry->version(), 2u);
  auto resolved = f.registry->Resolve("svm");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const auto holdout = TruthObservations(f.truth);
  const double refit_error =
      RefitEngine::HoldoutError(*resolved->model, holdout);
  const double stale_error = RefitEngine::HoldoutError(f.stale, holdout);
  EXPECT_LT(refit_error, stale_error)
      << "the published candidate must strictly improve on the stale model";

  const OnlineStats stats = SnapshotOnlineStats();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.records_ingested, observations.size());
  EXPECT_EQ(stats.refits_attempted, 1u);
  EXPECT_EQ(stats.refits_accepted, 1u);
  EXPECT_EQ(stats.active_model_version, 2u);

  // Consumed observations do not retrigger.
  EXPECT_EQ(loop.RunOnce().attempted, 0u);
}

TEST(OnlineJugglerTest, RegressingCandidateKeepsIncumbentServing) {
  ResetOnlineStatsForTest();
  LoopFixture f("regression_gate");
  // Serve the truth model, then feed a batch whose training split lies
  // (3x-inflated) while the freshest observations stay honest.
  SaveModel(f.truth, f.dir / "svm.model");
  ASSERT_TRUE(f.registry->Refresh().ok());
  const uint64_t version = f.registry->version();
  const std::string incumbent_text = core::TrainedJugglerToString(f.truth);

  OnlineJuggler loop(f.registry, nullptr, SmallLoopOptions());
  std::vector<Observation> batch = TruthObservations(f.truth, 3.0);
  const auto honest = TruthObservations(f.truth);
  batch.insert(batch.end(), honest.end() - honest.size() / 3, honest.end());
  loop.Observe(batch);

  const auto cycle = loop.RunOnce();
  EXPECT_EQ(cycle.attempted, 1u);
  EXPECT_EQ(cycle.accepted, 0u);
  EXPECT_EQ(cycle.rejected, 1u);
  EXPECT_EQ(f.registry->version(), version) << "a rejected candidate must not "
                                               "touch the registry";
  std::ifstream in(f.dir / "svm.model");
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), incumbent_text);
  EXPECT_EQ(SnapshotOnlineStats().refits_rejected, 1u);
}

TEST(OnlineJugglerTest, RollbackRepublishesLastGood) {
  ResetOnlineStatsForTest();
  LoopFixture f("rollback");
  OnlineJuggler loop(f.registry, nullptr, SmallLoopOptions());
  loop.Observe(TruthObservations(f.truth));
  ASSERT_EQ(loop.RunOnce().accepted, 1u);
  ASSERT_EQ(f.registry->version(), 2u);

  ASSERT_TRUE(loop.Rollback("svm").ok());
  EXPECT_EQ(f.registry->version(), 3u);
  std::ifstream in(f.dir / "svm.model");
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), core::TrainedJugglerToString(f.stale));
  EXPECT_EQ(SnapshotOnlineStats().rollbacks, 1u);

  EXPECT_EQ(loop.Rollback("lor").code(), StatusCode::kNotFound);
}

TEST(OnlineJugglerTest, EncodedIngestAndBackgroundThread) {
  ResetOnlineStatsForTest();
  LoopFixture f("background");
  OnlineJuggler::Options options = SmallLoopOptions();
  options.poll_interval_ms = 10;
  OnlineJuggler loop(f.registry, nullptr, options);
  loop.Start();
  loop.Start();  // Idempotent.

  ASSERT_TRUE(
      loop.ObserveEncoded(EncodeObservationBatch(TruthObservations(f.truth)))
          .ok());
  EXPECT_FALSE(loop.ObserveEncoded("JOBSgarbage").ok());

  // The poll thread must pick the batch up and publish without any explicit
  // RunOnce.
  for (int i = 0; i < 500 && f.registry->version() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.registry->version(), 2u);
  loop.Stop();
  loop.Stop();  // Idempotent.
  EXPECT_EQ(SnapshotOnlineStats().refits_accepted, 1u);
}

TEST(OnlineJugglerTest, ObservationsIngestedDuringARefitAreNotLost) {
  ResetOnlineStatsForTest();
  LoopFixture f("concurrent_ingest");
  OnlineJuggler::Options options = SmallLoopOptions();
  options.collector.capacity = 512;  // Small enough for the ring to displace.
  OnlineJuggler loop(f.registry, nullptr, options);

  // A producer keeps adding while refits run: every record must end up
  // consumed by a refit attempt, displaced by the ring, or still buffered.
  const auto batch = TruthObservations(f.truth);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < 150; ++i) {
      loop.Observe(batch);
      // An app the registry does not serve: taken and discarded.
      loop.Observe({QuickObs("lor", 10.0 + i)});
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true);
  });
  size_t consumed = 0;
  size_t attempted = 0;
  while (!done.load()) {
    const auto cycle = loop.RunOnce();
    consumed += cycle.consumed;
    attempted += cycle.attempted;
  }
  producer.join();
  consumed += loop.RunOnce().consumed;

  const FeedbackCollector::Stats stats = loop.collector().GetStats();
  EXPECT_EQ(stats.ingested, 150u * (batch.size() + 1));
  EXPECT_EQ(stats.ingested, stats.dropped + stats.buffered + consumed);
  EXPECT_GT(attempted, 0u);
}

TEST(OnlineMetricsTest, MetricsTextCarriesEverySeries) {
  ResetOnlineStatsForTest();
  MarkOnlineActive();
  RecordIngested(3);
  RecordDropped(1);
  RecordRefitAttempt();
  RecordRefitAccepted();
  SetHoldoutErrors(0.25, 0.5);
  SetActiveModelVersion(7);

  std::string text;
  AppendOnlineMetrics(&text);
  for (const char* series :
       {"juggler_online_active 1", "juggler_online_records_ingested_total 3",
        "juggler_online_records_dropped_total 1",
        "juggler_online_refits_attempted_total 1",
        "juggler_online_refits_accepted_total 1",
        "juggler_online_holdout_error 0.25",
        "juggler_online_incumbent_error 0.5",
        "juggler_online_model_version 7"}) {
    EXPECT_NE(text.find(series), std::string::npos)
        << "missing " << series << " in:\n"
        << text;
  }
}

}  // namespace
}  // namespace juggler::online
