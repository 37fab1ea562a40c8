// juggler_serve: the online serving subsystem (§5.5) as a process — an HTTP
// front end over RecommendationService by default, an interactive REPL with
// --stdin, or one node of the horizontal serving tier with --role.
//
//   juggler_serve <model-dir> [flags]
//
//   --train             train any missing paper workload into <model-dir>
//                       (full offline recipe, §5.1-§5.4)
//   --train-fast        like --train but on a small deterministic grid
//                       (seconds instead of minutes; for smoke tests)
//   --role R            standalone (default) | shard | router
//   --host H            bind address            (default 127.0.0.1)
//   --port P            bind port, 0=ephemeral  (default 8080; the HTTP
//                       port for standalone/router, the RPC port for shard)
//   --workers N         async warm-up worker threads     (default 4)
//   --queue-capacity N  async warm-up queue slots (default 1024); when
//                       given, also the HTTP/RPC handler dispatch queue
//                       slots (default 256; a full queue answers 503)
//   --cache-capacity N  prediction cache entries         (default 4096)
//   --handler-threads N HTTP/RPC handler threads         (default 4)
//   --eval-delay-ms N   artificial delay before each evaluation, on
//                       whichever thread evaluates — the event loop for
//                       HTTP recommends up to 4 KiB and resident
//                       kRecommend frames (testing backpressure; default 0)
//   --stdin             REPL on stdin instead of the HTTP server
//
// Recommends are evaluated where they arrive: HTTP singles and batches and
// kRecommend frames whose models are resident, with bodies up to 4 KiB
// (net::kInlineBodyBytes), on the event loop, as is observation ingest;
// larger bodies and lazy loads on a handler thread. The router forwards
// recommends, observations, apps and reloads from its event loop over
// pipelined shard connections, every batch slot at once; a body over 4 KiB
// takes a handler thread, which runs the same forwarder on a private
// poller. The warm-up workers serve only
// RecommendationService::RecommendAsync(), which no serving path calls.
//
// Online-adaptation flags (standalone and shard roles):
//   --online                     run the feedback loop: POST /v1/observe (or
//                                kObserve frames) feed live outcomes; models
//                                refit, pass a holdout gate, and republish
//                                into <model-dir> without a restart
//   --online-min-records N       refit an app once N observations buffer
//                                (default 24)
//   --online-interval-ms N       also refit at most every N ms when at least
//                                a holdout's worth is buffered (default 2000,
//                                0=off)
//   --online-error-threshold X   also refit when observed-vs-predicted mean
//                                relative error exceeds X (default 0, off)
//
// Shard-role flags (lazy model memory policy):
//   --max-loaded-models N  models resident at once, 0=unlimited (default 0)
//   --model-ttl-ms N       evict models idle this long, 0=off   (default 0)
//
// Router-role flags:
//   --shards LIST          comma-separated host:port backends (required)
//   --probe-interval-ms N  shard health-probe cadence   (default 250)
//   --rpc-timeout-ms N     per-call budget to a shard   (default 5000)
//
// Standalone/router mode prints "listening on http://HOST:PORT (BACKEND)"
// once ready; shard mode prints "shard listening on rpc://HOST:PORT
// (BACKEND)". All serve until SIGINT/SIGTERM; REPL mode reads one command
// per line:
//
//   <app> <examples> <features> [iterations] [machine-GB]   answer a query
//   reload      re-scan the model directory (hot, never blocks requests)
//   stats       cache hit rate, latency percentiles, registry version
//   apps        list registered applications
//   quit        exit
//
// Both modes print a serving-stats summary on every clean shutdown (quit,
// stdin EOF, SIGINT, SIGTERM) and exit 0.
//
// Example HTTP session:
//   $ juggler_serve /tmp/models --train &
//   $ curl localhost:8080/healthz
//   $ curl -X POST localhost:8080/v1/recommend
//       -d '{"app":"svm","params":{"examples":40000,"features":80000}}'
//   $ curl localhost:8080/metrics

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/parse.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "net/http_recommend_server.h"
#include "online/online_loop.h"
#include "online/online_metrics.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int signum) { g_signal = signum; }

/// Installs `OnSignal` without SA_RESTART, so a blocking stdin read in REPL
/// mode is interrupted (EINTR) and both modes fall through to the stats
/// summary instead of dying mid-loop.
void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int Usage() {
  std::cerr
      << "usage: juggler_serve <model-dir> [--train|--train-fast] [--host H] "
         "[--port P]\n"
         "                     [--role standalone|shard|router] "
         "[--shards H:P,H:P,...]\n"
         "                     [--workers N] [--queue-capacity N] "
         "[--cache-capacity N]\n"
         "                     [--handler-threads N] [--eval-delay-ms N] "
         "[--stdin]\n"
         "                     [--max-loaded-models N] [--model-ttl-ms N]\n"
         "                     [--probe-interval-ms N] [--rpc-timeout-ms N]\n"
         "                     [--online] [--online-min-records N]\n"
         "                     [--online-interval-ms N] "
         "[--online-error-threshold X]\n"
         "--workers: async warm-up threads (recommends are evaluated on the "
         "thread that receives them)\n"
         "--queue-capacity: slots of the warm-up queue (default 1024) and, "
         "when given, of the HTTP/RPC handler dispatch queue (default 256; "
         "503 when full)\n"
         "stdin commands (with --stdin): <app> <examples> <features> "
         "[iterations] [machine-GB] | reload | stats | apps | quit\n";
  return 2;
}

/// Splits "host:port,host:port" on commas (empty pieces dropped).
std::vector<std::string> SplitShards(const std::string& list) {
  std::vector<std::string> shards;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t comma = list.find(',', begin);
    if (comma == std::string::npos) comma = list.size();
    if (comma > begin) shards.push_back(list.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return shards;
}

/// Trains every paper workload missing from `dir`. The full recipe is the
/// juggler_cli one (0.4x-1x of the paper's parameters); `fast` swaps in the
/// small deterministic grid the tests use, turning minutes into seconds.
int TrainMissing(const fs::path& dir, bool fast) {
  fs::create_directories(dir);
  for (const auto& w : workloads::AllWorkloads()) {
    const fs::path path = dir / (w.name + service::ModelRegistry::kModelSuffix);
    if (fs::exists(path)) {
      std::printf("have    %s\n", path.c_str());
      continue;
    }
    core::JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
    if (fast) {
      config.time_grid =
          core::TrainingGrid{{4000, 8000, 16000}, {1000, 2000, 4000}, 5};
      config.run_options.noise_sigma = 0.0;
      config.run_options.straggler_prob = 0.0;
    }
    std::printf("training %s (four offline stages%s)...\n", w.name.c_str(),
                fast ? ", fast grid" : "");
    auto training = core::TrainJuggler(w.name, w.make, config);
    if (!training.ok()) {
      std::fprintf(stderr, "training %s failed: %s\n", w.name.c_str(),
                   training.status().ToString().c_str());
      return 1;
    }
    std::ofstream out(path);
    if (auto st = core::SaveTrainedJuggler(training->trained, out);
        !st.ok() || !out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trained %s (%zu schedules, %.1f machine-min)\n", path.c_str(),
                training->trained.schedules().size(), training->costs.Total());
  }
  return 0;
}

void PrintResponse(const service::RecommendRequest& request,
                   const service::RecommendResponse& response) {
  std::printf("%s @ examples=%g features=%g iterations=%d [%s, model v%llu]\n",
              request.app.c_str(), request.params.examples,
              request.params.features, request.params.iterations,
              response.cache_hit ? "cache hit" : "evaluated",
              static_cast<unsigned long long>(response.model_version));
  TablePrinter table({"Schedule", "Plan", "Cached size", "#Machines",
                      "Pred. time", "Pred. cost (machine min)"});
  for (const auto& r : *response.recommendations) {
    std::string id = "#";
    id += std::to_string(r.schedule_id);
    table.AddRow({std::move(id), r.plan.ToString(),
                  FormatBytes(r.predicted_bytes), std::to_string(r.machines),
                  FormatTime(r.predicted_time_ms),
                  TablePrinter::Num(r.predicted_cost_machine_min)});
  }
  table.Print(std::cout);
}

void PrintStats(const service::RecommendationService::Stats& stats,
                uint64_t registry_version, size_t registry_size) {
  std::printf(
      "serving stats: registry v%llu (%zu models) | requests %llu | "
      "hit rate %.1f %% | evaluations %llu | rejected %llu\n",
      static_cast<unsigned long long>(registry_version), registry_size,
      static_cast<unsigned long long>(stats.latency.count),
      100.0 * stats.cache.HitRate(),
      static_cast<unsigned long long>(stats.evaluations),
      static_cast<unsigned long long>(stats.rejected));
  std::printf(
      "latency: p50 %.1f us | p95 %.1f us | max %.1f us | mean %.1f us\n",
      stats.latency.p50_us, stats.latency.p95_us, stats.latency.max_us,
      stats.latency.MeanUs());
  for (const auto& [app, s] : stats.per_app) {
    std::printf("  %-12s requests %llu | hits %llu | misses %llu | "
                "evaluations %llu | p95 %.1f us\n",
                app.c_str(), static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.cache_misses),
                static_cast<unsigned long long>(s.evaluations),
                s.latency.p95_us);
  }
}

int RunRepl(const std::shared_ptr<service::ModelRegistry>& registry,
            service::RecommendationService& svc) {
  std::printf("serving %zu model(s) — try: svm 40000 80000\n",
              registry->size());
  std::string line;
  while (g_signal == 0 &&
         (std::printf("> "), std::fflush(stdout),
          std::getline(std::cin, line))) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "reload") {
      if (auto st = registry->Refresh(); !st.ok()) {
        std::printf("reload failed (old models stay active): %s\n",
                    st.ToString().c_str());
      } else {
        const auto refresh = registry->last_refresh();
        std::printf(
            "registry v%llu: %zu model(s) (%zu parsed, %zu reused, "
            "%zu removed)\n",
            static_cast<unsigned long long>(registry->version()),
            registry->size(), refresh.parsed, refresh.reused, refresh.removed);
      }
      continue;
    }
    if (command == "stats") {
      PrintStats(svc.GetStats(), registry->version(), registry->size());
      continue;
    }
    if (command == "apps") {
      for (const auto& name : registry->AppNames()) {
        std::printf("  %s\n", name.c_str());
      }
      continue;
    }

    service::RecommendRequest request;
    request.app = command;
    int iterations = 1;
    double machine_gb = 12.0;
    if (!(in >> request.params.examples >> request.params.features)) {
      std::printf("expected: <app> <examples> <features> [iterations] "
                  "[machine-GB]\n");
      continue;
    }
    in >> iterations >> machine_gb;
    request.params.iterations = iterations;
    request.machine_type = minispark::PaperCluster(1);
    request.machine_type.executor_memory_bytes = GiB(machine_gb);

    auto response = svc.Recommend(request);
    if (!response.ok()) {
      std::printf("%s\n", response.status().ToString().c_str());
      continue;
    }
    PrintResponse(request, *response);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const fs::path model_dir = argv[1];
  bool train = false;
  bool train_fast = false;
  bool use_stdin = false;
  std::string role = "standalone";
  std::string shards_list;
  std::string host = "127.0.0.1";
  int port = 8080;
  int workers = 4;
  int queue_capacity = 1024;
  bool queue_capacity_given = false;  // Dispatch queues keep their default.
  int cache_capacity = 4096;
  int handler_threads = 4;
  int eval_delay_ms = 0;
  int max_loaded_models = 0;
  int model_ttl_ms = 0;
  int probe_interval_ms = 250;
  int rpc_timeout_ms = 5000;
  bool online = false;
  int online_min_records = 24;
  int online_interval_ms = 2000;
  double online_error_threshold = 0.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool parsed = true;  // Numeric values: digits only, no trailing bytes.
    if (arg == "--train") {
      train = true;
    } else if (arg == "--train-fast") {
      train = train_fast = true;
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--role" && has_value) {
      role = argv[++i];
    } else if (arg == "--shards" && has_value) {
      shards_list = argv[++i];
    } else if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      parsed = ParseUnsigned(argv[++i], &port);
    } else if (arg == "--workers" && has_value) {
      parsed = ParseUnsigned(argv[++i], &workers);
    } else if (arg == "--queue-capacity" && has_value) {
      parsed = ParseUnsigned(argv[++i], &queue_capacity);
      queue_capacity_given = true;
    } else if (arg == "--cache-capacity" && has_value) {
      parsed = ParseUnsigned(argv[++i], &cache_capacity);
    } else if (arg == "--handler-threads" && has_value) {
      parsed = ParseUnsigned(argv[++i], &handler_threads);
    } else if (arg == "--eval-delay-ms" && has_value) {
      parsed = ParseUnsigned(argv[++i], &eval_delay_ms);
    } else if (arg == "--max-loaded-models" && has_value) {
      parsed = ParseUnsigned(argv[++i], &max_loaded_models);
    } else if (arg == "--model-ttl-ms" && has_value) {
      parsed = ParseUnsigned(argv[++i], &model_ttl_ms);
    } else if (arg == "--probe-interval-ms" && has_value) {
      parsed = ParseUnsigned(argv[++i], &probe_interval_ms);
    } else if (arg == "--rpc-timeout-ms" && has_value) {
      parsed = ParseUnsigned(argv[++i], &rpc_timeout_ms);
    } else if (arg == "--online") {
      online = true;
    } else if (arg == "--online-min-records" && has_value) {
      parsed = ParseUnsigned(argv[++i], &online_min_records);
    } else if (arg == "--online-interval-ms" && has_value) {
      parsed = ParseUnsigned(argv[++i], &online_interval_ms);
    } else if (arg == "--online-error-threshold" && has_value) {
      parsed = ParseFiniteDouble(argv[++i], &online_error_threshold);
    } else {
      return Usage();
    }
    if (!parsed) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", arg.c_str(), argv[i]);
      return Usage();
    }
  }
  if (port > 65535 || workers < 1 || queue_capacity < 1 ||
      cache_capacity < 1 || handler_threads < 1 || probe_interval_ms < 1 ||
      rpc_timeout_ms < 1 || online_min_records < 1 ||
      online_error_threshold < 0.0) {
    return Usage();
  }
  if (online && role == "router") {
    std::fprintf(stderr,
                 "--online applies to standalone/shard roles (the router "
                 "forwards observations, it never refits)\n");
    return Usage();
  }
  if (role != "standalone" && role != "shard" && role != "router") {
    std::fprintf(stderr, "--role must be standalone, shard, or router\n");
    return Usage();
  }
  if (role == "router" && shards_list.empty()) {
    std::fprintf(stderr, "--role router requires --shards host:port,...\n");
    return Usage();
  }
  if (use_stdin && role != "standalone") {
    std::fprintf(stderr, "--stdin only works with --role standalone\n");
    return Usage();
  }

  if (train) {
    if (int rc = TrainMissing(model_dir, train_fast); rc != 0) return rc;
  }

  if (role == "router") {
    // The router holds no models: it hashes questions across the shard
    // fleet and forwards. <model-dir> is accepted (so all three roles share
    // a command line) but not opened.
    cluster::Router::Options router_options;
    router_options.shards = SplitShards(shards_list);
    router_options.probe_interval_ms = probe_interval_ms;
    router_options.rpc_timeout_ms = rpc_timeout_ms;
    auto router = cluster::Router::Create(router_options);
    if (!router.ok()) {
      std::fprintf(stderr, "%s\n", router.status().ToString().c_str());
      return 1;
    }
    if (auto st = (*router)->Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    cluster::RouterHttpServer::Options server_options;
    server_options.http.host = host;
    server_options.http.port = static_cast<uint16_t>(port);
    server_options.http.num_handler_threads = handler_threads;
    if (queue_capacity_given) {
      server_options.http.dispatch_queue_capacity =
          static_cast<size_t>(queue_capacity);
    }
    cluster::RouterHttpServer server(router->get(), server_options);
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    InstallSignalHandlers();
    std::printf("routing across %zu shard(s)\n", (*router)->shard_count());
    std::printf("listening on http://%s:%u (%s)\n", host.c_str(),
                static_cast<unsigned>(server.port()),
                server.backend().c_str());
    std::fflush(stdout);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("\nsignal %d: shutting down\n", static_cast<int>(g_signal));
    server.Stop();
    (*router)->Stop();
    for (const auto& s : (*router)->GetShardStats()) {
      std::printf("shard %s: %s | requests %llu | errors %llu | p95 %.1f us\n",
                  s.address.c_str(), s.healthy ? "healthy" : "down",
                  static_cast<unsigned long long>(s.requests),
                  static_cast<unsigned long long>(s.errors),
                  s.latency.p95_us);
    }
    const auto http = server.http_stats();
    std::printf("router stats: reroutes %llu | probes %llu | requests %llu | "
                "fast path %llu\n",
                static_cast<unsigned long long>((*router)->reroutes()),
                static_cast<unsigned long long>((*router)->probes()),
                static_cast<unsigned long long>(http.requests),
                static_cast<unsigned long long>(http.fast_path));
    return 0;
  }

  service::ModelRegistry::Options registry_options;
  // A shard only loads the models the router's hash steers to it; the flags
  // also opt standalone mode into the same bounded-memory policy.
  registry_options.lazy_load =
      role == "shard" || max_loaded_models > 0 || model_ttl_ms > 0;
  registry_options.max_loaded = static_cast<size_t>(max_loaded_models);
  registry_options.ttl_ms = model_ttl_ms;
  auto registry = std::make_shared<service::ModelRegistry>(model_dir.string(),
                                                           registry_options);
  if (auto st = registry->Refresh(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  service::RecommendationService::Options options;
  options.num_workers = workers;
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  options.cache.capacity = static_cast<size_t>(cache_capacity);
  if (eval_delay_ms > 0) {
    options.pre_eval_hook = [eval_delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(eval_delay_ms));
    };
  }
  auto svc =
      std::make_shared<service::RecommendationService>(registry, options);

  std::shared_ptr<online::OnlineJuggler> online_loop;
  if (online) {
    online::OnlineJuggler::Options online_options;
    online_options.refit.min_records = static_cast<size_t>(online_min_records);
    online_options.refit.interval_ms = online_interval_ms;
    online_options.refit.error_threshold = online_error_threshold;
    online_loop =
        std::make_shared<online::OnlineJuggler>(registry, svc, online_options);
    online_loop->Start();
    std::printf("online adaptation on: min-records %d | interval %d ms | "
                "error threshold %g\n",
                online_min_records, online_interval_ms,
                online_error_threshold);
  }

  InstallSignalHandlers();

  int rc = 0;
  if (use_stdin) {
    rc = RunRepl(registry, *svc);
  } else if (role == "shard") {
    cluster::ShardServer::Options server_options;
    server_options.rpc.host = host;
    server_options.rpc.port = static_cast<uint16_t>(port);
    server_options.rpc.num_handler_threads = handler_threads;
    if (queue_capacity_given) {
      server_options.rpc.dispatch_queue_capacity =
          static_cast<size_t>(queue_capacity);
    }
    server_options.online = online_loop;
    cluster::ShardServer server(registry, svc, server_options);
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving %zu model(s) from %s (lazy load)\n",
                registry->size(), model_dir.c_str());
    std::printf("shard listening on rpc://%s:%u (%s)\n", host.c_str(),
                static_cast<unsigned>(server.port()),
                server.backend().c_str());
    std::fflush(stdout);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("\nsignal %d: shutting down\n", static_cast<int>(g_signal));
    server.Stop();
    const auto rpc = server.rpc_stats();
    std::printf("rpc stats: accepted %llu | requests %llu | fast path %llu | "
                "overload %llu | parse errors %llu | idle closed %llu\n",
                static_cast<unsigned long long>(rpc.accepted),
                static_cast<unsigned long long>(rpc.requests),
                static_cast<unsigned long long>(rpc.fast_path),
                static_cast<unsigned long long>(rpc.overload_rejected),
                static_cast<unsigned long long>(rpc.parse_errors),
                static_cast<unsigned long long>(rpc.idle_closed));
    std::printf("registry: %zu/%zu model(s) resident | evictions %llu\n",
                registry->loaded_models(), registry->size(),
                static_cast<unsigned long long>(registry->evictions()));
  } else {
    net::HttpRecommendServer::Options server_options;
    server_options.http.host = host;
    server_options.http.port = static_cast<uint16_t>(port);
    server_options.http.num_handler_threads = handler_threads;
    if (queue_capacity_given) {
      server_options.http.dispatch_queue_capacity =
          static_cast<size_t>(queue_capacity);
    }
    server_options.online = online_loop;
    net::HttpRecommendServer server(registry, svc, server_options);
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving %zu model(s) from %s\n", registry->size(),
                model_dir.c_str());
    std::printf("listening on http://%s:%u (%s)\n", host.c_str(),
                static_cast<unsigned>(server.port()),
                server.backend().c_str());
    std::fflush(stdout);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("\nsignal %d: shutting down\n", static_cast<int>(g_signal));
    server.Stop();
    const auto http = server.http_stats();
    std::printf("http stats: accepted %llu | requests %llu | fast path %llu | "
                "overload 503 %llu | parse errors %llu | idle closed %llu\n",
                static_cast<unsigned long long>(http.accepted),
                static_cast<unsigned long long>(http.requests),
                static_cast<unsigned long long>(http.fast_path),
                static_cast<unsigned long long>(http.overload_rejected),
                static_cast<unsigned long long>(http.parse_errors),
                static_cast<unsigned long long>(http.idle_closed));
  }
  if (online_loop != nullptr) {
    online_loop->Stop();
    const online::OnlineStats stats = online::SnapshotOnlineStats();
    std::printf(
        "online stats: ingested %llu | dropped %llu | refits attempted %llu "
        "accepted %llu rejected %llu | rollbacks %llu | model v%llu\n",
        static_cast<unsigned long long>(stats.records_ingested),
        static_cast<unsigned long long>(stats.records_dropped),
        static_cast<unsigned long long>(stats.refits_attempted),
        static_cast<unsigned long long>(stats.refits_accepted),
        static_cast<unsigned long long>(stats.refits_rejected),
        static_cast<unsigned long long>(stats.rollbacks),
        static_cast<unsigned long long>(stats.active_model_version));
  }
  PrintStats(svc->GetStats(), registry->version(), registry->size());
  return rc;
}
