// Mid-serve publishing: the ModelPublisher's write-temp-then-rename swap
// against live ModelRegistry readers. Every test here runs real threads over
// a real directory — under TSan (the CI thread-sanitizer job builds this
// binary) any torn read, lost refresh, or racy eviction becomes a report.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/juggler.h"
#include "core/serialization.h"
#include "online/model_publisher.h"
#include "service/model_registry.h"
#include "test_models.h"

namespace juggler::online {
namespace {

namespace fs = std::filesystem;
using core::TrainedJuggler;
using test::MakeModelDir;
using test::TrainSmall;

/// The same model with scaled time coefficients — a distinguishable variant
/// for swap tests.
TrainedJuggler Variant(const TrainedJuggler& model, double scale) {
  std::vector<math::LinearModel> scaled = model.time_models();
  for (math::LinearModel& m : scaled) {
    std::vector<double> coeffs = m.coefficients();
    for (double& c : coeffs) c *= scale;
    EXPECT_TRUE(m.SetCoefficients(std::move(coeffs)).ok());
  }
  return TrainedJuggler(model.app_name(), model.schedules(), model.sizes(),
                        model.memory(), std::move(scaled));
}

TEST(RegistryPublishTest, ReadersNeverSeeATornArtifact) {
  const fs::path dir = MakeModelDir("publish", "torn");
  const TrainedJuggler a = TrainSmall("svm");
  const TrainedJuggler b = Variant(a, 2.0);
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(a).ok());

  auto registry = std::make_shared<service::ModelRegistry>(dir.string());
  ASSERT_TRUE(registry->Refresh().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> resolved{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = registry->Resolve("svm");
        // A swap must never surface as a missing or unparsable model: the
        // rename either happened (new model) or did not (old model).
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->model->app_name(), "svm");
        ASSERT_EQ(r->model->time_models().size(),
                  r->model->schedules().size());
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread refresher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(registry->Refresh().ok());
    }
  });

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? b : a).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  refresher.join();
  EXPECT_GT(resolved.load(), 0u);
  EXPECT_EQ(publisher.GetStats().failures, 0u);
}

TEST(RegistryPublishTest, CorruptArtifactDegradesToLastGoodUntilRepublish) {
  const fs::path dir = MakeModelDir("publish", "corrupt");
  const TrainedJuggler good = TrainSmall("svm");
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(good).ok());

  service::ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  const uint64_t version = registry.version();

  // A writer that bypasses the publisher (or a torn disk) corrupts the
  // artifact in place. Refresh keeps serving the parsed last-good copy.
  std::ofstream(dir / "svm.model") << "not a model";
  ASSERT_TRUE(registry.Refresh().ok());
  auto still = registry.Resolve("svm");
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still->model->app_name(), "svm");
  EXPECT_EQ(registry.last_refresh().failed, 1u);

  // Recovery is a plain republish: the atomic swap replaces the corrupt
  // bytes and the next refresh serves the new artifact as a new version.
  ASSERT_TRUE(publisher.Publish(good).ok());
  ASSERT_TRUE(registry.Refresh().ok());
  auto recovered = registry.Resolve("svm");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(registry.version(), version);
}

TEST(RegistryPublishTest, SwapsRaceCleanlyWithLazyEviction) {
  const fs::path dir = MakeModelDir("publish", "lazy_evict");
  const TrainedJuggler svm = TrainSmall("svm");
  const TrainedJuggler pca = TrainSmall("pca");
  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(svm).ok());
  ASSERT_TRUE(publisher.Publish(pca).ok());

  // One resident model and an aggressive TTL: every swap races the LRU/TTL
  // eviction path as well as the readers.
  service::ModelRegistry::Options options;
  options.lazy_load = true;
  options.max_loaded = 1;
  options.ttl_ms = 1;
  auto registry =
      std::make_shared<service::ModelRegistry>(dir.string(), options);
  ASSERT_TRUE(registry->Refresh().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::string app = (t % 2 == 0) ? "svm" : "pca";
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = registry->Resolve(app);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->model->app_name(), app);
      }
    });
  }

  const TrainedJuggler svm2 = Variant(svm, 2.0);
  const TrainedJuggler pca2 = Variant(pca, 2.0);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? svm2 : svm).ok());
    ASSERT_TRUE(publisher.Publish(i % 2 == 0 ? pca2 : pca).ok());
    ASSERT_TRUE(registry->Refresh().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(registry->evictions(), 0u);
}

std::string ArtifactBytes(const TrainedJuggler& model) {
  std::ostringstream out;
  EXPECT_TRUE(core::SaveTrainedJuggler(model, out).ok());
  return out.str();
}

/// A publish that keeps the artifact's size and lands on the very mtime of
/// the file it replaces (a coarse timestamp tick does this) must still read
/// as a new artifact: the publisher renames a fresh file into place, so the
/// inode differs.
void ExpectSameSizeSameMtimePublishServes(bool lazy) {
  const fs::path dir =
      MakeModelDir("publish", lazy ? "same_stamp_lazy" : "same_stamp");
  const fs::path artifact = dir / "svm.model";
  const TrainedJuggler old_model = TrainSmall("svm");
  const std::string old_bytes = ArtifactBytes(old_model);
  // Scaling every time coefficient by a power of two keeps its mantissa, so
  // one of these scales gives different bytes of the same length.
  std::optional<TrainedJuggler> new_model;
  for (double scale : {2.0, 4.0, 0.5, 8.0, 0.25, 16.0, 0.125}) {
    TrainedJuggler candidate = Variant(old_model, scale);
    const std::string bytes = ArtifactBytes(candidate);
    if (bytes.size() == old_bytes.size() && bytes != old_bytes) {
      new_model.emplace(std::move(candidate));
      break;
    }
  }
  ASSERT_TRUE(new_model.has_value()) << "no same-size variant found";

  ModelPublisher publisher(dir.string());
  ASSERT_TRUE(publisher.Publish(old_model).ok());
  const fs::file_time_type stamp = fs::last_write_time(artifact);

  service::ModelRegistry::Options options;
  options.lazy_load = lazy;
  service::ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());
  const uint64_t version = registry.version();
  auto before = registry.Resolve("svm");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->model->time_models().front().coefficients(),
            old_model.time_models().front().coefficients());

  ASSERT_TRUE(publisher.Publish(*new_model).ok());
  fs::last_write_time(artifact, stamp);
  ASSERT_EQ(fs::file_size(artifact), old_bytes.size());
  ASSERT_EQ(fs::last_write_time(artifact), stamp);

  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_GT(registry.version(), version);
  auto after = registry.Resolve("svm");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->model->time_models().front().coefficients(),
            new_model->time_models().front().coefficients());
}

TEST(RegistryPublishTest, SameSizeSameMtimePublishServesEager) {
  ExpectSameSizeSameMtimePublishServes(/*lazy=*/false);
}

TEST(RegistryPublishTest, SameSizeSameMtimePublishServesLazy) {
  ExpectSameSizeSameMtimePublishServes(/*lazy=*/true);
}

}  // namespace
}  // namespace juggler::online
