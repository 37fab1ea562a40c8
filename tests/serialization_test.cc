#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "core/exec_time_model.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "math/stats.h"
#include "minispark/engine.h"
#include "test_models.h"
#include "workloads/workloads.h"

namespace juggler::core {
namespace {

using minispark::AppParams;
using minispark::PaperCluster;
using test::TrainSmall;

TEST(SerializationTest, RoundTripPreservesRecommendations) {
  const auto trained = TrainSmall("svm");
  const std::string text = TrainedJugglerToString(trained);
  EXPECT_NE(text.find("juggler-model 1"), std::string::npos);
  EXPECT_NE(text.find("app svm"), std::string::npos);

  auto loaded = TrainedJugglerFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->app_name(), "svm");
  EXPECT_EQ(loaded->schedules().size(), trained.schedules().size());
  EXPECT_DOUBLE_EQ(loaded->memory().memory_factor,
                   trained.memory().memory_factor);
  for (size_t i = 0; i < loaded->schedules().size(); ++i) {
    EXPECT_EQ(loaded->schedules()[i].plan,
              trained.schedules()[i].plan);
    EXPECT_EQ(loaded->schedules()[i].datasets,
              trained.schedules()[i].datasets);
  }

  // The online path must be bit-identical after a round trip.
  const AppParams user{12000, 3000, 5};
  auto original = trained.RecommendAll(user, PaperCluster(1));
  auto restored = loaded->RecommendAll(user, PaperCluster(1));
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(original->size(), restored->size());
  for (size_t i = 0; i < original->size(); ++i) {
    EXPECT_DOUBLE_EQ((*original)[i].predicted_bytes,
                     (*restored)[i].predicted_bytes);
    EXPECT_EQ((*original)[i].machines, (*restored)[i].machines);
    EXPECT_DOUBLE_EQ((*original)[i].predicted_time_ms,
                     (*restored)[i].predicted_time_ms);
  }
}

TEST(SerializationTest, RoundTripSurvivesSecondRoundTrip) {
  const auto trained = TrainSmall("pca");
  const std::string once = TrainedJugglerToString(trained);
  auto loaded = TrainedJugglerFromString(once);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(TrainedJugglerToString(*loaded), once);
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(TrainedJugglerFromString("").ok());
  EXPECT_FALSE(TrainedJugglerFromString("not-a-model 1\n").ok());
  EXPECT_FALSE(TrainedJugglerFromString("juggler-model 99\n").ok());
}

TEST(SerializationTest, RejectsWrongVersionLine) {
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  ASSERT_EQ(text.rfind("juggler-model 1\n", 0), 0u);
  const std::string body = text.substr(text.find('\n') + 1);
  // Future version, zero, negative, and non-numeric version tokens must all
  // be InvalidArgument — never a crash or a silent downgrade.
  for (const std::string header :
       {"juggler-model 2\n", "juggler-model 0\n", "juggler-model -1\n",
        "juggler-model one\n", "juggler-model\n"}) {
    auto loaded = TrainedJugglerFromString(header + body);
    EXPECT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
  }
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  ASSERT_TRUE(TrainedJugglerFromString(text).ok());
  // A registry directory artifact with junk after the model (partial
  // overwrite, concatenated files) must be rejected, not silently accepted.
  for (const std::string& suffix : std::vector<std::string>{
           "oops\n", "juggler-model 1\n", text, "\n\nextra"}) {
    auto loaded = TrainedJugglerFromString(text + suffix);
    EXPECT_FALSE(loaded.ok()) << suffix.substr(0, 20);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing blank lines are fine — editors and shells add them.
  EXPECT_TRUE(TrainedJugglerFromString(text + "\n\n").ok());
}

TEST(SerializationTest, RejectsCorruptedCountLines) {
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  for (const char* field : {"schedules ", "size_models ", "time_models "}) {
    const size_t pos = text.find(field);
    ASSERT_NE(pos, std::string::npos) << field;
    std::string corrupt = text;
    corrupt.replace(pos + std::string(field).size(), 1, "x");
    EXPECT_FALSE(TrainedJugglerFromString(corrupt).ok()) << field;
  }
}

TEST(SerializationTest, RejectsTruncatedInput) {
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  // Chop the text mid-structure; such prefixes must fail cleanly. (A cut
  // inside the final coefficient may still parse — text formats cannot
  // detect every truncation — so cut at section boundaries.)
  for (size_t cut : {text.size() / 4, text.size() / 2,
                     text.find("time_models"), text.find("size_models")}) {
    auto loaded = TrainedJugglerFromString(text.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

TEST(SerializationTest, RejectsCountInflationWithoutHugeAllocation) {
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  // Inflate a declared count far past what the remaining bytes could hold;
  // the loader must reject from the count line itself instead of sizing a
  // multi-GB vector from one forged integer.
  const auto inflate = [&text](const std::string& anchor, int skip_tokens) {
    size_t pos = text.find(anchor);
    EXPECT_NE(pos, std::string::npos) << anchor;
    pos += anchor.size();
    for (int i = 0; i < skip_tokens; ++i) pos = text.find(' ', pos) + 1;
    const size_t end = text.find_first_not_of("0123456789", pos);
    std::string corrupt = text;
    corrupt.replace(pos, end - pos, "99999999999999");
    return corrupt;
  };
  for (const auto& [anchor, skip] :
       {std::pair<const char*, int>{"schedules ", 0},
        {"datasets ", 0},
        {"size_models ", 0},
        {"time_model ", 1}}) {  // "time_model <family> <count> ..."
    auto loaded = TrainedJugglerFromString(inflate(anchor, skip));
    ASSERT_FALSE(loaded.ok()) << anchor;
    EXPECT_NE(loaded.status().message().find("exceeds what the remaining"),
              std::string::npos)
        << anchor << ": " << loaded.status().message();
  }
}

TEST(SerializationTest, RejectsOverflowingPlanDatasetId) {
  // A forged plan op like "p(9999999999999999999)" used to overflow the
  // signed accumulator in CachePlan::Parse (UB); it must be a clean error.
  const auto trained = TrainSmall("pca");
  const std::string text = TrainedJugglerToString(trained);
  const size_t pos = text.find("plan ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = text.find('\n', pos);
  std::string corrupt = text;
  corrupt.replace(pos, eol - pos, "plan p(9999999999999999999)");
  auto loaded = TrainedJugglerFromString(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("out of range"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SerializationTest, RejectsUnknownModelFamily) {
  const auto trained = TrainSmall("pca");
  std::string text = TrainedJugglerToString(trained);
  const size_t pos = text.find("size~");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "bogus");
  EXPECT_EQ(TrainedJugglerFromString(text).status().code(),
            StatusCode::kNotFound);
}

TEST(ModelFamilyByNameTest, FindsAllFamilies) {
  for (const auto& families :
       {math::MakeSizeModelFamilies(), math::MakeTimeModelFamilies()}) {
    for (const auto& family : families) {
      auto found = math::MakeModelFamilyByName(family.name());
      ASSERT_TRUE(found.ok()) << family.name();
      EXPECT_EQ(found->num_terms(), family.num_terms());
    }
  }
  EXPECT_FALSE(math::MakeModelFamilyByName("nope").ok());
}

TEST(ModelFamilyByNameTest, SetCoefficientsValidatesArity) {
  auto model = math::MakeModelFamilyByName("size~e+e*f").value();
  EXPECT_FALSE(model.SetCoefficients({1.0}).ok());
  ASSERT_TRUE(model.SetCoefficients({2.0, 3.0}).ok());
  EXPECT_DOUBLE_EQ(model.Predict({10, 5}), 2.0 * 10 + 3.0 * 50);
}

TEST(IterationExtensionTest, RescaleIsLinearInIterations) {
  IterationExtension ext;
  ext.a = 1000.0;
  ext.b = 100.0;
  ext.base_iterations = 10;  // base = 2000.
  EXPECT_DOUBLE_EQ(ext.Rescale(4000.0, 10), 4000.0);
  EXPECT_DOUBLE_EQ(ext.Rescale(4000.0, 30), 4000.0 * 2.0);  // 4000/2000.
  EXPECT_DOUBLE_EQ(ext.Rescale(4000.0, 0), 2000.0);
}

TEST(IterationExtensionTest, PredictsAcrossIterationCounts) {
  // Train the main model at 6 iterations, the extension over {3, 6, 12},
  // then predict a 24-iteration run.
  const auto w = workloads::GetWorkload("lor").value();
  const auto trained = TrainSmall("lor", 6);
  minispark::RunOptions quiet;
  quiet.noise_sigma = 0.0;
  quiet.straggler_prob = 0.0;

  const AppParams reference{12000, 3000, 6};
  auto ext = BuildIterationExtension(
      w.make, trained.schedules().front(), trained.sizes(),
      trained.memory().memory_factor, PaperCluster(1), reference, {3, 6, 12},
      quiet);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(ext->b, 0.0);  // More iterations take longer.

  const int target_iterations = 24;
  auto recs = trained.RecommendAll(AppParams{12000, 3000, 6}, PaperCluster(1));
  ASSERT_TRUE(recs.ok());
  const auto& rec = recs->front();
  const double predicted =
      ext->Rescale(rec.predicted_time_ms, target_iterations);

  minispark::Engine engine(quiet);
  auto actual =
      engine.Run(w.make(AppParams{12000, 3000, target_iterations}),
                 PaperCluster(rec.machines), rec.plan);
  ASSERT_TRUE(actual.ok());
  EXPECT_GT(math::PredictionAccuracy(predicted, actual->duration_ms), 0.8)
      << "predicted " << predicted << " actual " << actual->duration_ms;
  // Without the extension, the fixed-iteration model is far off.
  EXPECT_LT(math::PredictionAccuracy(rec.predicted_time_ms,
                                     actual->duration_ms),
            0.6);
}

TEST(IterationExtensionTest, RejectsTooFewCounts) {
  const auto trained = TrainSmall("pca");
  auto ext = BuildIterationExtension(
      workloads::GetWorkload("pca")->make, trained.schedules().front(),
      trained.sizes(), 1.0, PaperCluster(1), AppParams{4000, 800, 5},
      {5}, minispark::RunOptions{});
  EXPECT_FALSE(ext.ok());
}

}  // namespace
}  // namespace juggler::core
