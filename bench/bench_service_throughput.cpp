// bench_service_throughput: drives the online serving subsystem (§5.5 as a
// service) with concurrent clients and reports QPS, cache hit rate, and
// latency percentiles — the serving-tier numbers the paper's recurring-
// application scenario implies but never measures.
//
//   bench_service_throughput [clients] [requests-per-client] [model-dir]
//                            [out-json]
//
// Defaults: 8 clients x 1000 requests. Without a model-dir, the five paper
// workloads are trained into a temporary registry directory first (small
// training grids; the bench measures serving, not training). Also reports
// the warm-cache-hit vs. uncached-model-evaluation speedup (acceptance:
// >= 10x). Results are persisted to BENCH_service.json (the same flat-JSON
// trajectory format as bench_cluster's BENCH_cluster.json).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/table_printer.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Trains any of the five workloads missing from `dir` (small grids — the
/// bench measures the serving tier, not the offline stages).
void EnsureModels(const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& w : workloads::AllWorkloads()) {
    const fs::path path = dir / (w.name + service::ModelRegistry::kModelSuffix);
    if (fs::exists(path)) continue;
    // The full paper training recipe (0.4x-1x of the Table 1 parameters) —
    // the bench serves the same artifacts a production registry would hold.
    core::JugglerConfig config;
    config.time_grid = core::TrainingGrid{
        {0.4 * w.paper_params.examples, 0.7 * w.paper_params.examples,
         w.paper_params.examples},
        {0.4 * w.paper_params.features, 0.7 * w.paper_params.features,
         w.paper_params.features},
        w.paper_params.iterations};
    config.memory_reference = w.paper_params;
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    std::printf("  training %-4s -> %s\n", w.name.c_str(), path.c_str());
    auto training = core::TrainJuggler(w.name, w.make, config);
    if (!training.ok()) {
      std::fprintf(stderr, "training %s failed: %s\n", w.name.c_str(),
                   training.status().ToString().c_str());
      std::exit(1);
    }
    std::ofstream out(path);
    if (auto st = core::SaveTrainedJuggler(training->trained, out);
        !st.ok() || !out) {
      std::fprintf(stderr, "saving %s failed\n", path.c_str());
      std::exit(1);
    }
  }
}

/// The request mix: a fixed pool of distinct questions across all five apps.
/// Recurring applications re-ask the same questions, so clients sample from
/// this pool — that is what makes the prediction cache earn its keep.
std::vector<service::RecommendRequest> BuildRequestPool() {
  std::vector<service::RecommendRequest> pool;
  for (const auto& w : workloads::AllWorkloads()) {
    for (int i = 0; i < 8; ++i) {
      service::RecommendRequest req;
      req.app = w.name;
      req.params = minispark::AppParams{8000.0 + 2000.0 * i,
                                        2000.0 + 500.0 * i, 5};
      req.machine_type = minispark::PaperCluster(1);
      pool.push_back(std::move(req));
    }
  }
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const int requests_per_client = argc > 2 ? std::atoi(argv[2]) : 1000;
  const fs::path model_dir =
      argc > 3 ? fs::path(argv[3])
               : fs::temp_directory_path() / "juggler_bench_registry";
  const fs::path output_json =
      argc > 4 ? fs::path(argv[4]) : fs::path("BENCH_service.json");
  if (clients <= 0 || requests_per_client <= 0) {
    std::fprintf(
        stderr,
        "usage: %s [clients] [requests-per-client] [model-dir] [out-json]\n",
        argv[0]);
    return 2;
  }

  std::printf("== Online serving throughput ==\n");
  std::printf("registry: %s\n", model_dir.c_str());
  EnsureModels(model_dir);

  auto registry = std::make_shared<service::ModelRegistry>(model_dir.string());
  if (auto st = registry->Refresh(); !st.ok()) {
    std::fprintf(stderr, "registry refresh failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu models (registry v%llu)\n\n", registry->size(),
              static_cast<unsigned long long>(registry->version()));

  service::RecommendationService::Options options;
  options.num_workers = 8;
  options.queue_capacity = 4096;
  options.cache.capacity = 1024;
  service::RecommendationService svc(registry, options);

  const auto pool = BuildRequestPool();

  // --- Concurrent client phase -------------------------------------------
  std::printf("%d clients x %d requests, %zu distinct questions, %d workers\n",
              clients, requests_per_client, pool.size(), options.num_workers);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> errors{0};
  const auto start = Clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xbadc0ffee + static_cast<uint64_t>(t));
      for (int i = 0; i < requests_per_client; ++i) {
        const auto& req = pool[rng.Next() % pool.size()];
        auto result = svc.Recommend(req);
        // Backpressure is a valid answer under overload; a client would
        // retry. Anything else is a bench failure.
        if (!result.ok() &&
            result.status().code() != StatusCode::kResourceExhausted) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s = SecondsSince(start);
  const uint64_t total = static_cast<uint64_t>(clients) * requests_per_client;

  const auto stats = svc.GetStats();
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"requests", std::to_string(total)});
  table.AddRow({"errors", std::to_string(errors.load())});
  table.AddRow({"rejected (backpressure)", std::to_string(stats.rejected)});
  table.AddRow({"wall time", TablePrinter::Num(elapsed_s) + " s"});
  table.AddRow({"QPS", TablePrinter::Num(total / elapsed_s)});
  table.AddRow({"cache hit rate",
                TablePrinter::Num(100.0 * stats.cache.HitRate()) + " %"});
  table.AddRow({"cache size / evictions",
                std::to_string(stats.cache.size) + " / " +
                    std::to_string(stats.cache.evictions)});
  table.AddRow({"model evaluations", std::to_string(stats.evaluations)});
  table.AddRow({"latency p50", TablePrinter::Num(stats.latency.p50_us) + " us"});
  table.AddRow({"latency p95", TablePrinter::Num(stats.latency.p95_us) + " us"});
  table.AddRow({"latency max", TablePrinter::Num(stats.latency.max_us) + " us"});
  table.AddRow(
      {"latency mean", TablePrinter::Num(stats.latency.MeanUs()) + " us"});
  table.Print(std::cout);

  if (errors.load() > 0) {
    std::fprintf(stderr, "FAIL: %llu unexpected errors\n",
                 static_cast<unsigned long long>(errors.load()));
    return 1;
  }

  // --- Warm-hit vs uncached evaluation ------------------------------------
  // Acceptance: a warm PredictionCache hit answers >= 10x faster than the
  // uncached path. That ratio measured the worker-pool hop misses used to
  // take; misses now evaluate on the calling thread, so a plain build fails
  // this check (~3x) until it is retired together with PredictionCache (see
  // "Delete the prediction cache" in ROADMAP.md). Probe with the registry's
  // most schedule-rich model (the heaviest online evaluation).
  size_t probe_index = 0;
  size_t most_schedules = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto m = registry->Lookup(pool[i].app);
    if (m.ok() && (*m)->schedules().size() > most_schedules) {
      most_schedules = (*m)->schedules().size();
      probe_index = i;
    }
  }
  const auto& probe = pool[probe_index];
  auto model = registry->Lookup(probe.app);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("\nprobe app: %s (%zu schedules)\n", probe.app.c_str(),
              most_schedules);
  (void)svc.Recommend(probe);  // Warm the cache entry.

  constexpr int kProbeIters = 50000;
  const auto warm_start = Clock::now();
  for (int i = 0; i < kProbeIters; ++i) {
    auto r = svc.Recommend(probe);
    if (!r.ok() || !r->cache_hit) {
      std::fprintf(stderr, "FAIL: warm probe missed the cache\n");
      return 1;
    }
  }
  const double warm_us = 1e6 * SecondsSince(warm_start) / kProbeIters;

  // The uncached serving path (what a hit short-circuits): model evaluation
  // and cache insertion on the calling thread. Unique parameters per request
  // guarantee a miss every time.
  constexpr int kMissIters = 5000;
  const auto miss_start = Clock::now();
  for (int i = 0; i < kMissIters; ++i) {
    auto req = probe;
    req.params.examples += i + 1;  // Never-seen key -> forced miss.
    auto r = svc.Recommend(req);
    if (!r.ok() || r->cache_hit) {
      std::fprintf(stderr, "FAIL: miss probe hit the cache\n");
      return 1;
    }
  }
  const double miss_us = 1e6 * SecondsSince(miss_start) / kMissIters;

  // The bare model evaluation, outside the service (no queue, no cache).
  const auto eval_start = Clock::now();
  for (int i = 0; i < kProbeIters; ++i) {
    auto r = (*model)->Recommend(probe.params, probe.machine_type);
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: direct Recommend failed\n");
      return 1;
    }
  }
  const double eval_us = 1e6 * SecondsSince(eval_start) / kProbeIters;

  const double speedup = miss_us / warm_us;
  std::printf("\nwarm cache hit:         %8.3f us/request\n", warm_us);
  std::printf("uncached serving path:  %8.3f us/request\n", miss_us);
  std::printf("bare model evaluation:  %8.3f us/request\n", eval_us);
  std::printf("hit vs uncached path:   %8.1fx (acceptance: >= 10x)\n",
              speedup);
  std::printf("hit vs bare evaluation: %8.1fx\n", eval_us / warm_us);

  // Persisted perf trajectory: one flat JSON document per run (the same
  // shape bench_cluster writes to BENCH_cluster.json).
  {
    std::ofstream out(output_json);
    char json[512];
    std::snprintf(json, sizeof(json),
                  "{\"bench\":\"service\",\"clients\":%d,\"requests\":%llu,"
                  "\"errors\":%llu,\"qps\":%.1f,\"cache_hit_rate\":%.4f,"
                  "\"p50_us\":%.1f,\"p95_us\":%.1f,\"warm_hit_us\":%.3f,"
                  "\"uncached_us\":%.3f,\"speedup\":%.1f}\n",
                  clients, static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(errors.load()),
                  total / elapsed_s, stats.cache.HitRate(),
                  stats.latency.p50_us, stats.latency.p95_us, warm_us,
                  miss_us, speedup);
    out << json;
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", output_json.c_str());
      return 1;
    }
    std::printf("wrote %s\n", output_json.c_str());
  }
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  // Sanitizer builds exist to catch races, not to measure time: instrumented
  // mutexes/atomics dominate both paths, so the ratio is meaningless.
  std::printf("(sanitizer build: speedup acceptance check skipped)\n");
#else
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: warm hit path is not >= 10x faster\n");
    return 1;
  }
#endif
  std::printf("\nOK\n");
  return 0;
}
