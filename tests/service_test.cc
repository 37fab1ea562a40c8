#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/juggler.h"
#include "service/metrics.h"
#include "service/model_registry.h"
#include "service/prediction_cache.h"
#include "service/recommendation_service.h"
#include "service/thread_pool.h"
#include "test_models.h"

namespace juggler::service {
namespace {

namespace fs = std::filesystem;
using core::TrainedJuggler;
using minispark::AppParams;
using minispark::PaperCluster;
using test::MakeModelDir;
using test::SaveModel;
using test::TrainSmall;

bool SameRecommendations(const std::vector<core::Recommendation>& a,
                         const std::vector<core::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal: the serving layer must never
    // change what the model answers.
    if (a[i].schedule_id != b[i].schedule_id || !(a[i].plan == b[i].plan) ||
        a[i].predicted_bytes != b[i].predicted_bytes ||
        a[i].machines != b[i].machines ||
        a[i].predicted_time_ms != b[i].predicted_time_ms ||
        a[i].predicted_cost_machine_min != b[i].predicted_cost_machine_min) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, LoadsArtifactsAndLooksUpByAppName) {
  const fs::path dir = MakeModelDir("registry", "loads");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");
  std::ofstream(dir / "notes.txt") << "ignored: wrong extension\n";

  ModelRegistry registry(dir.string());
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.size(), 0u);
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.AppNames(), (std::vector<std::string>{"pca", "svm"}));

  auto svm = registry.Lookup("svm");
  ASSERT_TRUE(svm.ok()) << svm.status().ToString();
  EXPECT_EQ((*svm)->app_name(), "svm");

  auto missing = registry.Lookup("lor");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("svm"), std::string::npos)
      << "NotFound should list the known apps: "
      << missing.status().message();
}

TEST(ModelRegistryTest, RefreshPicksUpNewArtifacts) {
  const fs::path dir = MakeModelDir("registry", "pickup");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_FALSE(registry.Lookup("pca").ok());

  SaveModel(TrainSmall("pca"), dir / "pca.model");
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Lookup("pca").ok());
}

TEST(ModelRegistryTest, HotReloadDoesNotInvalidateInFlightReaders) {
  const fs::path dir = MakeModelDir("registry", "hot_reload");
  SaveModel(TrainSmall("svm", /*iterations=*/5), dir / "svm.model");
  ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());

  // An in-flight request resolves the model...
  auto before = registry.Lookup("svm");
  ASSERT_TRUE(before.ok());
  const AppParams params{12000, 3000, 5};
  auto answer_before = (*before)->Recommend(params, PaperCluster(1));
  ASSERT_TRUE(answer_before.ok());

  // ...the artifact is retrained and hot-swapped underneath it...
  SaveModel(TrainSmall("svm", /*iterations=*/9), dir / "svm.model");
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 2u);

  // ...and the old handle still answers, identically to before the swap.
  auto answer_after = (*before)->Recommend(params, PaperCluster(1));
  ASSERT_TRUE(answer_after.ok());
  EXPECT_TRUE(SameRecommendations(*answer_before, *answer_after));

  // New lookups get the new model object.
  auto after = registry.Lookup("svm");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
}

TEST(ModelRegistryTest, MalformedArtifactDoesNotPoisonRefresh) {
  const fs::path dir = MakeModelDir("registry", "malformed_skipped");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());

  // A never-parsed broken artifact is skipped; everything else keeps serving
  // and the refresh itself succeeds.
  std::ofstream(dir / "broken.model") << "juggler-model 1\napp oops\n";
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Lookup("svm").ok());
  EXPECT_EQ(registry.last_refresh().failed, 1u);
  // The failure is attributed to the file stem (it never declared an app).
  const auto errors = registry.refresh_errors();
  ASSERT_EQ(errors.count("broken"), 1u);
  EXPECT_EQ(errors.at("broken"), 1u);
}

TEST(ModelRegistryTest, CorruptedArtifactKeepsLastGoodModelServing) {
  const fs::path dir = MakeModelDir("registry", "corrupted_live");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");
  ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  auto good = registry.Lookup("svm");
  ASSERT_TRUE(good.ok());

  // A retrain pipeline crashes mid-write: the svm artifact is now garbage.
  std::ofstream(dir / "svm.model") << "half-written garbage";
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.last_refresh().failed, 1u);
  // Last-good model keeps serving, bit-identical handle; pca untouched.
  auto after = registry.Lookup("svm");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), good->get());
  EXPECT_TRUE(registry.Lookup("pca").ok());
  EXPECT_EQ(registry.refresh_errors().at("svm"), 1u);

  // While the file stays broken it is not re-parsed every scan (the failure
  // was fingerprinted); the error counter does not grow.
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.last_refresh().failed, 0u);
  EXPECT_EQ(registry.refresh_errors().at("svm"), 1u);

  // Fixing the artifact re-parses it and swaps the new model in.
  SaveModel(TrainSmall("svm", /*iterations=*/9), dir / "svm.model");
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.last_refresh().failed, 0u);
  EXPECT_EQ(registry.last_refresh().parsed, 1u);
  auto fixed = registry.Lookup("svm");
  ASSERT_TRUE(fixed.ok());
  EXPECT_NE(fixed->get(), good->get());
}

TEST(ModelRegistryTest, RefreshRejectsDuplicateAppNames) {
  const fs::path dir = MakeModelDir("registry", "duplicate");
  const auto svm = TrainSmall("svm");
  SaveModel(svm, dir / "svm.model");
  SaveModel(svm, dir / "svm_copy.model");
  ModelRegistry registry(dir.string());
  Status st = registry.Refresh();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("duplicate"), std::string::npos);
}

TEST(ModelRegistryTest, IncrementalRefreshReusesUnchangedArtifacts) {
  const fs::path dir = MakeModelDir("registry", "incremental");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");
  ModelRegistry registry(dir.string());
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.last_refresh().scanned, 2u);
  EXPECT_EQ(registry.last_refresh().parsed, 2u);
  EXPECT_EQ(registry.last_refresh().reused, 0u);

  auto svm_before = registry.Lookup("svm");
  ASSERT_TRUE(svm_before.ok());

  // Nothing changed on disk: the rescan must not re-read any file (pointer
  // identity proves the parsed models were carried over), and the published
  // snapshot/version must stay put so version-keyed caches stay warm.
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.last_refresh().parsed, 0u);
  EXPECT_EQ(registry.last_refresh().reused, 2u);
  EXPECT_EQ(registry.Lookup("svm")->get(), svm_before->get());

  // One artifact retrained: only that file is parsed; the other is reused.
  SaveModel(TrainSmall("pca", /*iterations=*/9), dir / "pca.model");
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.last_refresh().parsed, 1u);
  EXPECT_EQ(registry.last_refresh().reused, 1u);
  EXPECT_EQ(registry.Lookup("svm")->get(), svm_before->get())
      << "the untouched artifact must not be re-parsed";

  // A removed artifact is a change too: version bumps, the rest is reused.
  fs::remove(dir / "pca.model");
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.version(), 3u);
  EXPECT_EQ(registry.last_refresh().removed, 1u);
  EXPECT_EQ(registry.last_refresh().reused, 1u);
  EXPECT_FALSE(registry.Lookup("pca").ok());
}

TEST(ModelRegistryTest, MissingDirectoryIsNotFound) {
  ModelRegistry registry(
      (fs::path(testing::TempDir()) / "no_such_dir_xyz").string());
  EXPECT_EQ(registry.Refresh().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ModelRegistry: lazy loading + LRU/TTL eviction (cluster-shard memory mode)

TEST(ModelRegistryTest, LazyModeDefersParsingUntilFirstResolve) {
  const fs::path dir = MakeModelDir("registry", "lazy_defer");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");

  ModelRegistry::Options options;
  options.lazy_load = true;
  ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());
  // Registered by stem, nothing parsed into memory yet.
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.AppNames(), (std::vector<std::string>{"pca", "svm"}));
  EXPECT_EQ(registry.loaded_models(), 0u);

  auto svm = registry.Lookup("svm");
  ASSERT_TRUE(svm.ok()) << svm.status().ToString();
  EXPECT_EQ((*svm)->app_name(), "svm");
  EXPECT_EQ(registry.loaded_models(), 1u) << "only the resolved model loads";

  // A second resolve is a cache hit: same parsed object.
  auto again = registry.Lookup("svm");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(svm->get(), again->get()) << "resolve must not re-parse";
  EXPECT_EQ(registry.evictions(), 0u);
}

TEST(ModelRegistryTest, ResolveResidentNeverParses) {
  const fs::path dir = MakeModelDir("registry", "resolve_resident");
  SaveModel(TrainSmall("svm"), dir / "svm.model");

  // Eager: every registered model is resident, so it always answers.
  ModelRegistry eager(dir.string());
  ASSERT_TRUE(eager.Refresh().ok());
  auto eager_svm = eager.ResolveResident("svm");
  ASSERT_TRUE(eager_svm.has_value());
  ASSERT_TRUE(eager_svm->ok());
  EXPECT_EQ((*eager_svm)->version, 1u);

  ModelRegistry::Options options;
  options.lazy_load = true;
  ModelRegistry lazy(dir.string(), options);
  ASSERT_TRUE(lazy.Refresh().ok());
  // Unknown apps are answered (NotFound needs no parse)...
  auto unknown = lazy.ResolveResident("nope");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status().code(), StatusCode::kNotFound);
  // ...a registered but unloaded model is declined, and stays unloaded...
  EXPECT_FALSE(lazy.ResolveResident("svm").has_value());
  EXPECT_EQ(lazy.loaded_models(), 0u);
  // ...and once Resolve() has loaded it, it is answered with the same object.
  auto loaded = lazy.Resolve("svm");
  ASSERT_TRUE(loaded.ok());
  auto resident = lazy.ResolveResident("svm");
  ASSERT_TRUE(resident.has_value());
  ASSERT_TRUE(resident->ok());
  EXPECT_EQ((*resident)->model.get(), loaded->model.get());
  EXPECT_EQ((*resident)->version, loaded->version);
}

TEST(ModelRegistryTest, LazyLruEvictsBeyondMaxLoaded) {
  const fs::path dir = MakeModelDir("registry", "lazy_lru");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");
  SaveModel(TrainSmall("lor"), dir / "lor.model");

  ModelRegistry::Options options;
  options.lazy_load = true;
  options.max_loaded = 2;
  ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());

  ASSERT_TRUE(registry.Lookup("svm").ok());
  ASSERT_TRUE(registry.Lookup("pca").ok());
  EXPECT_EQ(registry.loaded_models(), 2u);
  EXPECT_EQ(registry.evictions(), 0u);

  // Touch svm so pca is the least recently used, then load a third model.
  ASSERT_TRUE(registry.Lookup("svm").ok());
  ASSERT_TRUE(registry.Lookup("lor").ok());
  EXPECT_EQ(registry.loaded_models(), 2u) << "the cap must hold";
  EXPECT_EQ(registry.evictions(), 1u);

  // The evicted model still resolves — it just pays a re-parse.
  auto pca = registry.Lookup("pca");
  ASSERT_TRUE(pca.ok()) << pca.status().ToString();
  EXPECT_EQ((*pca)->app_name(), "pca");
  EXPECT_EQ(registry.evictions(), 2u) << "loading pca evicted another model";
}

TEST(ModelRegistryTest, LazyTtlEvictsIdleModels) {
  const fs::path dir = MakeModelDir("registry", "lazy_ttl");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");

  ModelRegistry::Options options;
  options.lazy_load = true;
  options.ttl_ms = 50;
  ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());

  ASSERT_TRUE(registry.Lookup("svm").ok());
  EXPECT_EQ(registry.loaded_models(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The sweep runs on the resolve path; this load finds svm expired.
  ASSERT_TRUE(registry.Lookup("pca").ok());
  EXPECT_EQ(registry.loaded_models(), 1u) << "expired svm must be gone";
  EXPECT_GE(registry.evictions(), 1u);
}

TEST(ModelRegistryTest, LazyRejectsArtifactWhoseAppDiffersFromStem) {
  const fs::path dir = MakeModelDir("registry", "lazy_stem");
  // The file claims app "svm" but is named "other.model": lazy mode
  // registers by stem, so the declared name must match at load time.
  SaveModel(TrainSmall("svm"), dir / "other.model");

  ModelRegistry::Options options;
  options.lazy_load = true;
  ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.AppNames(), (std::vector<std::string>{"other"}));

  auto resolved = registry.Lookup("other");
  EXPECT_EQ(resolved.status().code(), StatusCode::kFailedPrecondition)
      << resolved.status().ToString();
  EXPECT_EQ(registry.loaded_models(), 0u)
      << "a mismatched artifact must not be cached";
}

TEST(ModelRegistryTest, LazyMalformedArtifactFailsResolveNotRefresh) {
  const fs::path dir = MakeModelDir("registry", "lazy_malformed");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  std::ofstream(dir / "broken.model") << "this is not a model artifact\n";

  ModelRegistry::Options options;
  options.lazy_load = true;
  ModelRegistry registry(dir.string(), options);
  // Lazy refresh never opens the files, so the broken one registers fine.
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_FALSE(registry.Lookup("broken").ok());
  auto svm = registry.Lookup("svm");
  EXPECT_TRUE(svm.ok()) << "one broken artifact must not affect the others";
}

TEST(ModelRegistryTest, LazyReloadPicksUpChangedArtifacts) {
  const fs::path dir = MakeModelDir("registry", "lazy_reload");
  SaveModel(TrainSmall("svm"), dir / "svm.model");

  ModelRegistry::Options options;
  options.lazy_load = true;
  ModelRegistry registry(dir.string(), options);
  ASSERT_TRUE(registry.Refresh().ok());
  auto before = registry.Lookup("svm");
  ASSERT_TRUE(before.ok());

  // Rewrite the artifact with different bytes (more training iterations) and
  // force a fingerprint change even on coarse filesystem clocks.
  SaveModel(TrainSmall("svm", /*iterations=*/7), dir / "svm.model");
  const auto stamp = fs::last_write_time(dir / "svm.model");
  fs::last_write_time(dir / "svm.model", stamp + std::chrono::seconds(2));
  ASSERT_TRUE(registry.Refresh().ok());

  auto after = registry.Lookup("svm");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get())
      << "a changed file must be re-parsed, not served from the stale cache";
}

// ---------------------------------------------------------------------------
// PredictionCache

PredictionCache::Value MakeValue(int schedule_id) {
  std::vector<core::Recommendation> recs(1);
  recs[0].schedule_id = schedule_id;
  return std::make_shared<const std::vector<core::Recommendation>>(
      std::move(recs));
}

TEST(PredictionCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  PredictionCache cache(PredictionCache::Options{/*capacity=*/3,
                                                 /*num_shards=*/1});
  cache.Put("a", MakeValue(1));
  cache.Put("b", MakeValue(2));
  cache.Put("c", MakeValue(3));
  ASSERT_NE(cache.Get("a"), nullptr);  // Refreshes "a": LRU is now "b".
  cache.Put("d", MakeValue(4));        // Evicts "b".

  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("d"), nullptr);

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PredictionCacheTest, PutOfExistingKeyRefreshesInsteadOfEvicting) {
  PredictionCache cache(PredictionCache::Options{2, 1});
  cache.Put("a", MakeValue(1));
  cache.Put("b", MakeValue(2));
  cache.Put("a", MakeValue(3));  // Refresh, not insert: nothing evicted.
  cache.Put("c", MakeValue(4));  // Evicts "b" (LRU), not "a".
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ((*cache.Get("a"))[0].schedule_id, 3);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(PredictionCacheTest, StaysWithinCapacityAcrossShards) {
  PredictionCache cache(PredictionCache::Options{/*capacity=*/8,
                                                 /*num_shards=*/4});
  for (int i = 0; i < 100; ++i) {
    cache.Put("key" + std::to_string(i), MakeValue(i));
  }
  EXPECT_LE(cache.GetStats().size, 8u);
  EXPECT_GE(cache.GetStats().evictions, 92u);
}

TEST(PredictionCacheTest, KeyReflectsEveryInput) {
  const AppParams params{12000, 3000, 5};
  const auto machine = PaperCluster(1);
  const std::string base = PredictionCache::MakeKey("svm", 1, params, machine);
  EXPECT_EQ(PredictionCache::MakeKey("svm", 1, params, machine), base);

  EXPECT_NE(PredictionCache::MakeKey("pca", 1, params, machine), base);
  EXPECT_NE(PredictionCache::MakeKey("svm", 2, params, machine), base);
  AppParams p2 = params;
  p2.examples += 1;
  EXPECT_NE(PredictionCache::MakeKey("svm", 1, p2, machine), base);
  p2 = params;
  p2.iterations += 1;
  EXPECT_NE(PredictionCache::MakeKey("svm", 1, p2, machine), base);
  auto m2 = machine;
  m2.executor_memory_bytes *= 2;
  EXPECT_NE(PredictionCache::MakeKey("svm", 1, params, m2), base);

  // Two objective weightings must never alias one cache entry: the same
  // question under a latency-heavy objective is a different answer.
  EXPECT_EQ(PredictionCache::MakeKey("svm", 1, params, machine,
                                     core::Objective{}),
            base);
  EXPECT_NE(PredictionCache::MakeKey("svm", 1, params, machine,
                                     core::Objective{1.0, 0.5, 0.0}),
            base);
  EXPECT_NE(PredictionCache::MakeKey("svm", 1, params, machine,
                                     core::Objective{1.0, 0.5, 0.0}),
            PredictionCache::MakeKey("svm", 1, params, machine,
                                     core::Objective{1.0, 0.0, 0.5}));
}

TEST(PredictionCacheTest, FlushAppDropsOnlyThatApp) {
  PredictionCache cache(PredictionCache::Options{/*capacity=*/64,
                                                 /*num_shards=*/4});
  const auto machine = PaperCluster(1);
  for (int i = 0; i < 8; ++i) {
    const AppParams params{1000.0 + i, 100.0, 1};
    cache.Put(PredictionCache::MakeKey("svm", 1, params, machine),
              MakeValue(i));
    cache.Put(PredictionCache::MakeKey("pca", 1, params, machine),
              MakeValue(i));
  }
  ASSERT_EQ(cache.GetStats().size, 16u);

  // An accepted online refit flushes the app's stale answers; the flush is
  // not an eviction (nothing was squeezed out by capacity).
  EXPECT_EQ(cache.FlushApp("svm"), 8u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.size, 8u);
  EXPECT_EQ(stats.evictions, 0u);
  const AppParams params{1000.0, 100.0, 1};
  EXPECT_EQ(cache.Get(PredictionCache::MakeKey("svm", 1, params, machine)),
            nullptr);
  EXPECT_NE(cache.Get(PredictionCache::MakeKey("pca", 1, params, machine)),
            nullptr);

  // "svm" must not flush an app whose name merely starts with it.
  cache.Put(PredictionCache::MakeKey("svm2", 1, params, machine), MakeValue(1));
  EXPECT_EQ(cache.FlushApp("svm"), 0u);
  EXPECT_NE(cache.Get(PredictionCache::MakeKey("svm2", 1, params, machine)),
            nullptr);
}

TEST(PredictionCacheTest, PeekCountsHitsButNeverMisses) {
  PredictionCache cache(PredictionCache::Options{/*capacity=*/2,
                                                 /*num_shards=*/1});
  // An opportunistic probe of a cold key leaves the stats untouched: the
  // authoritative Get() on the fallthrough path counts the one real miss.
  EXPECT_EQ(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.GetStats().misses, 0u);

  cache.Put("a", MakeValue(1));
  cache.Put("b", MakeValue(2));
  ASSERT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.GetStats().hits, 1u);

  // The Peek refreshed "a"'s recency, so "b" is the LRU victim.
  cache.Put("c", MakeValue(3));
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.Peek("b"), nullptr);
  EXPECT_EQ(cache.GetStats().misses, 0u);
}

TEST(PredictionCacheTest, MakeKeySpreadsAcrossShards) {
  PredictionCache cache(PredictionCache::Options{/*capacity=*/256,
                                                 /*num_shards=*/8});
  ASSERT_EQ(cache.num_shards(), 8u);
  // Realistic keys: one recurring app asking about a sweep of input sizes —
  // the workload where a single hot shard would serialize every client.
  const auto machine = PaperCluster(1);
  for (int i = 0; i < 64; ++i) {
    const AppParams params{10000.0 + 500.0 * i, 2000.0 + 100.0 * i, 5};
    cache.Put(PredictionCache::MakeKey("svm", 1, params, machine),
              MakeValue(i));
  }
  const auto sizes = cache.ShardSizes();
  ASSERT_EQ(sizes.size(), 8u);
  size_t total = 0;
  int populated = 0;
  for (const size_t size : sizes) {
    total += size;
    if (size > 0) ++populated;
    EXPECT_LE(size, 32u) << "one shard holds half the keys: degenerate hash";
  }
  EXPECT_EQ(total, cache.GetStats().size);
  EXPECT_EQ(total, 64u);
  EXPECT_GE(populated, 6) << "64 keys should land on nearly every shard";
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(ThreadPool::Options{2, 64});
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
  }
  pool.Shutdown();  // Drains the queue before joining.
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, FullQueueReturnsResourceExhausted) {
  ThreadPool pool(ThreadPool::Options{1, 1});
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;

  // Occupy the single worker...
  ASSERT_TRUE(pool.Submit([&] {
                    std::unique_lock<std::mutex> lock(mu);
                    entered = true;
                    cv.notify_all();
                    cv.wait(lock, [&] { return release; });
                  })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // ...fill the queue...
  ASSERT_TRUE(pool.Submit([] {}).ok());
  // ...and the next submit must shed.
  EXPECT_EQ(pool.Submit([] {}).code(), StatusCode::kResourceExhausted);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(ThreadPool::Options{1, 4});
  pool.Shutdown();
  EXPECT_EQ(pool.Submit([] {}).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, TracksCountSumMaxAndPercentiles) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.GetSnapshot().count, 0u);
  for (int i = 0; i < 95; ++i) hist.Record(100.0);
  for (int i = 0; i < 5; ++i) hist.Record(10000.0);
  const auto snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum_us, 95 * 100.0 + 5 * 10000.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 10000.0);
  // Log-spaced buckets: estimates are exact to one bucket (factor 1.5).
  EXPECT_GE(snap.p50_us, 100.0 / 1.5);
  EXPECT_LE(snap.p50_us, 100.0 * 1.5);
  EXPECT_GE(snap.p95_us, 100.0 / 1.5);
  EXPECT_LE(snap.p95_us, 100.0 * 1.5);
}

// ---------------------------------------------------------------------------
// RecommendationService

struct ServiceFixture {
  fs::path dir;
  std::shared_ptr<ModelRegistry> registry;
  std::unique_ptr<RecommendationService> service;

  explicit ServiceFixture(const std::string& test_name,
                          RecommendationService::Options options = {}) {
    dir = MakeModelDir("registry", test_name);
    SaveModel(TrainSmall("svm"), dir / "svm.model");
    SaveModel(TrainSmall("pca"), dir / "pca.model");
    registry = std::make_shared<ModelRegistry>(dir.string());
    Status st = registry->Refresh();
    EXPECT_TRUE(st.ok()) << st.ToString();
    service = std::make_unique<RecommendationService>(registry, options);
  }
};

RecommendRequest SvmRequest(double examples = 12000, double features = 3000) {
  return RecommendRequest{"svm", AppParams{examples, features, 5},
                          PaperCluster(1), {}};
}

TEST(RecommendationServiceTest, MatchesDirectRecommendBitForBit) {
  ServiceFixture f("matches_direct");
  const auto request = SvmRequest();

  auto direct_model = f.registry->Lookup("svm");
  ASSERT_TRUE(direct_model.ok());
  auto direct =
      (*direct_model)->Recommend(request.params, request.machine_type);
  ASSERT_TRUE(direct.ok());

  auto served = f.service->Recommend(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->cache_hit);
  EXPECT_EQ(served->model_version, 1u);
  EXPECT_TRUE(SameRecommendations(*direct, *served->recommendations));

  // Second ask: warm hit, same (shared) answer.
  auto warm = f.service->Recommend(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->recommendations.get(), served->recommendations.get());

  const auto stats = f.service->GetStats();
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.latency.count, 2u);
}

TEST(RecommendationServiceTest, ObjectiveWeightingsGetDistinctCacheEntries) {
  ServiceFixture f("objective_cache");
  auto classic = f.service->Recommend(SvmRequest());
  ASSERT_TRUE(classic.ok()) << classic.status().ToString();
  EXPECT_FALSE(classic->cache_hit);

  // The same question under a different objective is a different cache key:
  // it must evaluate, not replay the classic answer.
  RecommendRequest weighted = SvmRequest();
  weighted.objective = core::Objective{0.01, 1.0, 0.0};
  auto first = f.service->Recommend(weighted);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  auto second = f.service->Recommend(weighted);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(SameRecommendations(*first->recommendations,
                                  *second->recommendations));
}

TEST(RecommendationServiceTest, UnknownAppIsNotFound) {
  ServiceFixture f("unknown_app");
  auto result = f.service->Recommend(
      RecommendRequest{"nope", AppParams{1000, 100, 1}, PaperCluster(1), {}});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RecommendationServiceTest, BatchDedupsAndMatchesSequential) {
  ServiceFixture f("batch_dedup");
  // 9 slots, 2 unique questions + 1 unknown app, duplicates interleaved.
  std::vector<RecommendRequest> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(SvmRequest(12000, 3000));
  batch.push_back(
      RecommendRequest{"nope", AppParams{1, 1, 1}, PaperCluster(1), {}});
  for (int i = 0; i < 4; ++i) batch.push_back(SvmRequest(24000, 6000));

  auto results = f.service->RecommendBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(results[4].status().code(), StatusCode::kNotFound);

  // Each unique question was evaluated exactly once despite 4 copies each.
  EXPECT_EQ(f.service->GetStats().evaluations, 2u);

  // Every slot equals a sequential Recommend() of the same element.
  auto model = f.registry->Lookup("svm");
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i == 4) continue;
    ASSERT_TRUE(results[i].ok()) << i;
    auto sequential =
        (*model)->Recommend(batch[i].params, batch[i].machine_type);
    ASSERT_TRUE(sequential.ok());
    EXPECT_TRUE(
        SameRecommendations(*sequential, *results[i]->recommendations))
        << "slot " << i;
  }
  // Duplicate slots share one answer snapshot.
  EXPECT_EQ(results[0]->recommendations.get(),
            results[3]->recommendations.get());
}

TEST(RecommendationServiceTest, ResidentBatchDeclinesOnALazySlotCountingNothing) {
  const fs::path dir = MakeModelDir("registry", "batch_resident");
  SaveModel(TrainSmall("svm"), dir / "svm.model");
  SaveModel(TrainSmall("pca"), dir / "pca.model");
  ModelRegistry::Options lazy;
  lazy.lazy_load = true;
  auto registry = std::make_shared<ModelRegistry>(dir.string(), lazy);
  ASSERT_TRUE(registry->Refresh().ok());
  RecommendationService service(registry, RecommendationService::Options{});
  const RecommendRequest pca{"pca", AppParams{12000, 3000, 5}, PaperCluster(1),
                             {}};
  ASSERT_TRUE(service.Recommend(SvmRequest(12000, 3000)).ok());  // Loads svm.
  const RecommendationService::Stats before = service.GetStats();

  // svm is resident, pca is not: the whole batch declines before any slot
  // is answered, so not even the resident slots move a counter.
  const std::vector<RecommendRequest> batch = {
      SvmRequest(12000, 3000), SvmRequest(24000, 6000), pca,
      RecommendRequest{"nope", AppParams{1, 1, 1}, PaperCluster(1), {}}};
  EXPECT_FALSE(service.RecommendBatchIfResident(batch).has_value());
  const RecommendationService::Stats after = service.GetStats();
  EXPECT_EQ(after.evaluations, before.evaluations);
  EXPECT_EQ(after.cache.hits, before.cache.hits);
  EXPECT_EQ(after.cache.misses, before.cache.misses);
  EXPECT_EQ(after.per_app.at("svm").requests,
            before.per_app.at("svm").requests);
  EXPECT_EQ(after.per_app.count("pca"), 0u);
  EXPECT_EQ(registry->loaded_models(), 1u) << "the loop never parses";

  // Once every model is resident, the same batch is answered with
  // RecommendBatch()'s answers (the first call loads pca and fills the
  // cache, so both see the same hits from here on).
  const auto loaded = service.RecommendBatch(batch);
  const auto resident = service.RecommendBatchIfResident(batch);
  ASSERT_TRUE(resident.has_value());
  const auto pooled = service.RecommendBatch(batch);
  ASSERT_EQ(resident->size(), batch.size());
  ASSERT_EQ(loaded.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ((*resident)[i].ok(), pooled[i].ok()) << i;
    if (!pooled[i].ok()) {
      EXPECT_EQ((*resident)[i].status().code(), StatusCode::kNotFound);
      continue;
    }
    EXPECT_TRUE((*resident)[i]->cache_hit) << i;
    EXPECT_EQ((*resident)[i]->recommendations.get(),
              pooled[i]->recommendations.get())
        << "slot " << i << " shares the cached answer";
  }
}

TEST(RecommendationServiceTest, FullQueueShedsWithResourceExhausted) {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;

  RecommendationService::Options options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.pre_eval_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ServiceFixture f("backpressure", options);

  // First request occupies the single worker (blocked in the hook)...
  auto first = f.service->RecommendAsync(SvmRequest(10000, 1000));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= 1; });
  }
  // ...second fills the one queue slot...
  auto second = f.service->RecommendAsync(SvmRequest(11000, 1100));
  // ...third must be shed immediately.
  auto third = f.service->RecommendAsync(SvmRequest(12000, 1200));
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(third.get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f.service->GetStats().rejected, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  auto r1 = first.get();
  auto r2 = second.get();
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST(RecommendationServiceTest, RecommendDoesNotQueue) {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;

  RecommendationService::Options options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  // Blocks only the pool worker: Recommend() runs the hook on the caller's
  // thread, which must sail through.
  const std::thread::id caller = std::this_thread::get_id();
  int caller_evaluations = 0;  // Touched by the caller's thread only.
  options.pre_eval_hook = [&] {
    if (std::this_thread::get_id() == caller) {
      ++caller_evaluations;
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ServiceFixture f("does_not_queue", options);

  // The single worker is blocked and the one queue slot is taken...
  auto first = f.service->RecommendAsync(SvmRequest(10000, 1000));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= 1; });
  }
  auto second = f.service->RecommendAsync(SvmRequest(11000, 1100));

  // ...yet a cold Recommend() is evaluated on this thread and answers OK.
  auto answered = f.service->Recommend(SvmRequest(12000, 1200));
  const uint64_t rejected = f.service->GetStats().rejected;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());

  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_FALSE(answered->cache_hit);
  EXPECT_EQ(caller_evaluations, 1) << "the hook runs where the model does";
  EXPECT_EQ(rejected, 0u);
}

TEST(RecommendationServiceTest, QueueDeadlineShedsStaleRequests) {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;

  RecommendationService::Options options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.queue_deadline_ms = 20.0;
  options.pre_eval_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ServiceFixture f("deadline_shed", options);

  // First request occupies the single worker, blocked in the hook...
  auto first = f.service->RecommendAsync(SvmRequest(10000, 1000));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= 1; });
  }
  // ...two more distinct questions queue up behind it...
  auto second = f.service->RecommendAsync(SvmRequest(11000, 1100));
  auto third = f.service->RecommendAsync(SvmRequest(12000, 1200));
  // ...and overstay the 20 ms deadline while the worker is stuck.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  auto r1 = first.get();
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = second.get();
  auto r3 = third.get();
  EXPECT_EQ(r2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r3.status().code(), StatusCode::kResourceExhausted);
  const auto stats = f.service->GetStats();
  EXPECT_EQ(stats.deadline_shed, 2u);
  EXPECT_EQ(stats.rejected, 0u);  // Shed by deadline, not by a full queue.
}

TEST(RecommendationServiceTest, HotReloadBumpsVersionAndBypassesStaleCache) {
  ServiceFixture f("reload_cache");
  const auto request = SvmRequest();
  auto v1 = f.service->Recommend(request);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->model_version, 1u);

  // Retrain + hot-swap the artifact; the memoized v1 answer must not serve.
  SaveModel(TrainSmall("svm", /*iterations=*/9), f.dir / "svm.model");
  ASSERT_TRUE(f.registry->Refresh().ok());

  auto v2 = f.service->Recommend(request);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->model_version, 2u);
  EXPECT_FALSE(v2->cache_hit);
  EXPECT_EQ(f.service->GetStats().evaluations, 2u);
}

TEST(RecommendationServiceTest, TryRecommendCachedAnswersOnlyWithoutWork) {
  ServiceFixture f("try_cached");
  const auto request = SvmRequest();

  // Cold key: declines (an evaluation would be needed) and counts nothing —
  // the caller falls through to Recommend(), which owns the accounting.
  EXPECT_FALSE(f.service->TryRecommendCached(request).has_value());
  EXPECT_EQ(f.service->GetStats().cache.misses, 0u);
  EXPECT_TRUE(f.service->GetStats().per_app.empty());

  // Resolve errors need no evaluation, so they are answered inline.
  auto unknown = f.service->TryRecommendCached(
      RecommendRequest{"nope", AppParams{1000, 100, 1}, PaperCluster(1), {}});
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status().code(), StatusCode::kNotFound);

  // Warm key: a full answer, bit-identical to the blocking path's.
  auto full = f.service->Recommend(request);
  ASSERT_TRUE(full.ok());
  auto warm = f.service->TryRecommendCached(request);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->ok()) << warm->status().ToString();
  EXPECT_TRUE((*warm)->cache_hit);
  EXPECT_EQ((*warm)->recommendations.get(), full->recommendations.get());

  const auto stats = f.service->GetStats();
  const auto& svm = stats.per_app.at("svm");
  EXPECT_EQ(svm.requests, 2u);
  EXPECT_EQ(svm.cache_hits, 1u);
  EXPECT_EQ(svm.cache_misses, 1u);
  EXPECT_EQ(svm.evaluations, 1u);
  EXPECT_EQ(svm.latency.count, 2u);
}

TEST(RecommendationServiceTest, PerAppStatsPartitionTraffic) {
  ServiceFixture f("per_app");
  // svm: one unique question asked twice (miss + hit) plus a second unique
  // question; pca: one question; plus one unknown app.
  ASSERT_TRUE(f.service->Recommend(SvmRequest(12000, 3000)).ok());
  ASSERT_TRUE(f.service->Recommend(SvmRequest(12000, 3000)).ok());
  ASSERT_TRUE(f.service->Recommend(SvmRequest(24000, 6000)).ok());
  ASSERT_TRUE(f.service
                  ->Recommend(RecommendRequest{"pca", AppParams{8000, 2000, 5},
                                               PaperCluster(1), {}})
                  .ok());
  EXPECT_FALSE(f.service
                   ->Recommend(RecommendRequest{"nope", AppParams{1, 1, 1},
                                                PaperCluster(1), {}})
                   .ok());

  const auto stats = f.service->GetStats();
  ASSERT_EQ(stats.per_app.size(), 2u)
      << "rejected app names must not create label series";
  const auto& svm = stats.per_app.at("svm");
  EXPECT_EQ(svm.requests, 3u);
  EXPECT_EQ(svm.cache_hits, 1u);
  EXPECT_EQ(svm.cache_misses, 2u);
  EXPECT_EQ(svm.evaluations, 2u);
  EXPECT_EQ(svm.latency.count, 3u);
  const auto& pca = stats.per_app.at("pca");
  EXPECT_EQ(pca.requests, 1u);
  EXPECT_EQ(pca.cache_misses, 1u);
  EXPECT_EQ(pca.evaluations, 1u);

  // The per-app slices partition the global counters.
  EXPECT_EQ(svm.requests + pca.requests, stats.latency.count);
  EXPECT_EQ(svm.evaluations + pca.evaluations, stats.evaluations);
  EXPECT_EQ(svm.cache_hits + pca.cache_hits, stats.cache.hits);
  EXPECT_EQ(svm.cache_misses + pca.cache_misses, stats.cache.misses);
}

TEST(RecommendationServiceTest, ConcurrentMixedTrafficIsConsistent) {
  RecommendationService::Options options;
  options.num_workers = 4;
  options.cache.capacity = 64;
  ServiceFixture f("concurrent", options);

  // Reference answers computed single-threaded up front.
  auto model = f.registry->Lookup("svm");
  ASSERT_TRUE(model.ok());
  std::vector<RecommendRequest> pool;
  std::vector<std::vector<core::Recommendation>> expected;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(SvmRequest(10000 + 1000 * i, 2000 + 500 * i));
    auto recs =
        (*model)->Recommend(pool.back().params, pool.back().machine_type);
    ASSERT_TRUE(recs.ok());
    expected.push_back(*recs);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const int k = (t + i) % 8;
        auto result = f.service->Recommend(pool[k]);
        if (!result.ok() ||
            !SameRecommendations(expected[k], *result->recommendations)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = f.service->GetStats();
  EXPECT_EQ(stats.latency.count, 8u * 50u);
  EXPECT_GT(stats.cache.hits, 0u);
}

}  // namespace
}  // namespace juggler::service
