// juggler_soak: the standing soak/chaos gauntlet. Launches the full serving
// stack in-process (standalone HttpRecommendServer, or router + N JRPC
// shards), replays a parameterized traffic trace against the HTTP edge —
// diurnal/flash shapes, zipfian app popularity with rotation, slowloris
// clients, malformed bytes interleaved with valid requests — while a chaos
// schedule from the same trace kills/restarts/pauses shards, corrupts and
// restores model artifacts, and publishes refits mid-flight. Throughout the
// run it checks SLO invariants: every valid request gets a well-formed
// response (2xx or clean 503 + Retry-After — never a hang, reset, or
// malformed body), per-phase error budgets and p99 bounds hold, /metrics
// counters stay monotone and internally consistent, and the stack exits
// clean with no leaked connections.
//
//   juggler_soak --trace tools/soak/traces/short_gauntlet.trace
//       [--mode cluster|standalone] [--shards N] [--online] [--seed N]
//       [--time-scale X] [--workers N] [--model-dir DIR] [--corpus DIR]
//       [--report SOAK_report.json] [--bench BENCH_soak.json]
//       [--qps-floor R]
//
// Emits SOAK_report.json (per-phase outcomes + verdicts + chaos log) and
// BENCH_soak.json (sustained-throughput floor, skipped under sanitizers).
// The trace's request count is fixed, so --time-scale X spreads it over X
// times the duration: the floor checked is --qps-floor / X.
// Exit code 0 iff every invariant held.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/parse.h"
#include "core/juggler.h"
#include "core/serialization.h"
#include "loadgen/generator.h"
#include "loadgen/replay.h"
#include "loadgen/slo.h"
#include "loadgen/trace.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "online/online_loop.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

using namespace juggler;  // NOLINT

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif

struct Flags {
  std::string trace;
  std::string mode = "cluster";
  int shards = 2;
  bool online = false;
  uint64_t seed = 1;
  double time_scale = 1.0;
  int workers = 8;
  std::string model_dir;
  std::string corpus;
  std::string report = "SOAK_report.json";
  std::string bench = "BENCH_soak.json";
  double qps_floor = 20.0;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    bool parsed = true;  // Numeric values: digits only, no trailing bytes.
    if (arg == "--trace") {
      flags->trace = value();
    } else if (arg == "--mode") {
      flags->mode = value();
    } else if (arg == "--shards") {
      parsed = ParseUnsigned(value(), &flags->shards);
    } else if (arg == "--online") {
      flags->online = true;
    } else if (arg == "--seed") {
      parsed = ParseUnsigned(value(), &flags->seed);
    } else if (arg == "--time-scale") {
      parsed = ParseFiniteDouble(value(), &flags->time_scale);
    } else if (arg == "--workers") {
      parsed = ParseUnsigned(value(), &flags->workers);
    } else if (arg == "--model-dir") {
      flags->model_dir = value();
    } else if (arg == "--corpus") {
      flags->corpus = value();
    } else if (arg == "--report") {
      flags->report = value();
    } else if (arg == "--bench") {
      flags->bench = value();
    } else if (arg == "--qps-floor") {
      parsed = ParseFiniteDouble(value(), &flags->qps_floor);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (!parsed) {
      std::fprintf(stderr, "bad value for %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->trace.empty()) {
    std::fprintf(stderr, "usage: juggler_soak --trace FILE [options]\n");
    return false;
  }
  if (flags->mode != "cluster" && flags->mode != "standalone") {
    std::fprintf(stderr, "--mode must be cluster or standalone\n");
    return false;
  }
  if (flags->shards < 1 || flags->workers < 1 || flags->time_scale <= 0.0) {
    std::fprintf(stderr, "--shards/--workers/--time-scale out of range\n");
    return false;
  }
  return true;
}

/// Trains any of the five workloads missing from `dir` on a 3x3 grid at 40%,
/// 70% and 100% of their paper parameters (noise-free), so later runs reuse
/// the cached registry directory.
void EnsureModels(const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& w : workloads::AllWorkloads()) {
    const fs::path path =
        dir / (w.name + service::ModelRegistry::kModelSuffix);
    if (fs::exists(path)) continue;
    core::JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
    config.run_options.noise_sigma = 0.0;
    config.run_options.straggler_prob = 0.0;
    std::printf("  training %-6s -> %s\n", w.name.c_str(), path.c_str());
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

std::shared_ptr<online::OnlineJuggler> MakeOnline(
    const std::shared_ptr<service::ModelRegistry>& registry,
    const std::shared_ptr<service::RecommendationService>& service) {
  online::OnlineJuggler::Options options;
  options.poll_interval_ms = 250;
  options.refit.min_records = 16;
  options.refit.interval_ms = 1'000;
  auto loop =
      std::make_shared<online::OnlineJuggler>(registry, service, options);
  loop->Start();
  return loop;
}

/// One JRPC shard with its own lazy registry, service, and (optionally)
/// online loop. Kill/restart replaces only the server; state survives the
/// way a crashed-and-restarted process with a warm disk cache would not —
/// which is fine: the invariants under test live at the router and HTTP
/// edge, not in the shard's memory.
struct ShardState {
  std::shared_ptr<service::ModelRegistry> registry;
  std::shared_ptr<service::RecommendationService> service;
  std::shared_ptr<online::OnlineJuggler> online;
  std::unique_ptr<cluster::ShardServer> server;
  uint16_t port = 0;
  bool up = false;
};

std::unique_ptr<cluster::ShardServer> MakeShardServer(ShardState* shard,
                                                      uint16_t port) {
  cluster::ShardServer::Options options;
  options.rpc.port = port;
  options.rpc.num_handler_threads = 4;
  options.online = shard->online;
  return std::make_unique<cluster::ShardServer>(shard->registry,
                                                shard->service, options);
}

/// The serving stack under test, behind one interface so the chaos executor
/// does not care which mode runs.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual uint16_t http_port() const = 0;
  virtual bool KillShard(size_t index) = 0;
  virtual bool RestartShard(size_t index) = 0;
  virtual void ReloadModels() = 0;
  virtual void Stop() = 0;
};

class ClusterStack : public Stack {
 public:
  ClusterStack(const fs::path& model_dir, int shard_count, bool online) {
    for (int i = 0; i < shard_count; ++i) {
      auto shard = std::make_unique<ShardState>();
      service::ModelRegistry::Options ropts;
      ropts.lazy_load = true;
      shard->registry = std::make_shared<service::ModelRegistry>(
          model_dir.string(), ropts);
      if (auto st = shard->registry->Refresh(); !st.ok()) {
        std::fprintf(stderr, "shard registry: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      service::RecommendationService::Options sopts;
      sopts.num_workers = 2;
      sopts.queue_capacity = 4'096;
      sopts.cache.capacity = 1'024;
      shard->service = std::make_shared<service::RecommendationService>(
          shard->registry, sopts);
      if (online) shard->online = MakeOnline(shard->registry, shard->service);
      shard->server = MakeShardServer(shard.get(), 0);
      if (auto st = shard->server->Start(); !st.ok()) {
        std::fprintf(stderr, "shard start: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      shard->port = shard->server->port();
      shard->up = true;
      shards_.push_back(std::move(shard));
    }
    cluster::Router::Options ropts;
    for (const auto& shard : shards_) {
      ropts.shards.push_back("127.0.0.1:" + std::to_string(shard->port));
    }
    ropts.probe_interval_ms = 100;  // React to chaos quickly.
    auto created = cluster::Router::Create(ropts);
    if (!created.ok()) {
      std::fprintf(stderr, "router: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    router_ = std::move(created).value();
    if (auto st = router_->Start(); !st.ok()) {
      std::fprintf(stderr, "router start: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    cluster::RouterHttpServer::Options hopts;
    hopts.http.port = 0;
    hopts.http.num_handler_threads = 8;
    hopts.http.max_connections = 512;
    hopts.http.header_read_timeout_ms = 1'000;  // Reap slowloris fast.
    hopts.http.write_timeout_ms = 5'000;
    http_ = std::make_unique<cluster::RouterHttpServer>(router_.get(), hopts);
    if (auto st = http_->Start(); !st.ok()) {
      std::fprintf(stderr, "router http start: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }

  uint16_t http_port() const override { return http_->port(); }

  bool KillShard(size_t index) override {
    if (index >= shards_.size() || !shards_[index]->up) return false;
    shards_[index]->server->Stop();
    shards_[index]->server.reset();
    shards_[index]->up = false;
    return true;
  }

  bool RestartShard(size_t index) override {
    if (index >= shards_.size() || shards_[index]->up) return false;
    ShardState* shard = shards_[index].get();
    shard->server = MakeShardServer(shard, shard->port);
    if (auto st = shard->server->Start(); !st.ok()) {
      std::fprintf(stderr, "shard restart: %s\n", st.ToString().c_str());
      return false;
    }
    shard->up = true;
    return true;
  }

  void ReloadModels() override {
    // Best effort: downed shards report their failure in the reply.
    net::HttpRequest reload;
    reload.method = "POST";
    reload.target = "/v1/reload";
    reload.version = "HTTP/1.1";
    (void)http_->Handle(reload);
  }

  void Stop() override {
    if (http_) http_->Stop();
    if (router_) router_->Stop();
    for (auto& shard : shards_) {
      if (shard->up) {
        shard->server->Stop();
        shard->up = false;
      }
      if (shard->online) shard->online->Stop();
    }
  }

  const cluster::Router& router() const { return *router_; }

 private:
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<cluster::Router> router_;
  std::unique_ptr<cluster::RouterHttpServer> http_;
};

class StandaloneStack : public Stack {
 public:
  StandaloneStack(const fs::path& model_dir, bool online) {
    registry_ =
        std::make_shared<service::ModelRegistry>(model_dir.string());
    if (auto st = registry_->Refresh(); !st.ok()) {
      std::fprintf(stderr, "registry: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    service::RecommendationService::Options sopts;
    sopts.num_workers = 4;
    sopts.queue_capacity = 4'096;
    sopts.cache.capacity = 1'024;
    service_ = std::make_shared<service::RecommendationService>(registry_,
                                                                sopts);
    if (online) online_ = MakeOnline(registry_, service_);
    net::HttpRecommendServer::Options hopts;
    hopts.http.port = 0;
    hopts.http.num_handler_threads = 8;
    hopts.http.max_connections = 512;
    hopts.http.header_read_timeout_ms = 1'000;
    hopts.http.write_timeout_ms = 5'000;
    hopts.online = online_;
    server_ = std::make_unique<net::HttpRecommendServer>(registry_, service_,
                                                         hopts);
    if (auto st = server_->Start(); !st.ok()) {
      std::fprintf(stderr, "http start: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }

  uint16_t http_port() const override { return server_->port(); }
  bool KillShard(size_t) override { return false; }     // No shards.
  bool RestartShard(size_t) override { return false; }  // No shards.

  void ReloadModels() override {
    if (auto st = registry_->Refresh(); !st.ok()) {
      // Corrupt artifacts are the point of the exercise: the registry keeps
      // serving the last good snapshot and reports the error here.
      std::printf("  reload kept last-good: %s\n", st.ToString().c_str());
    }
  }

  void Stop() override {
    if (server_) server_->Stop();
    if (online_) online_->Stop();
  }

 private:
  std::shared_ptr<service::ModelRegistry> registry_;
  std::shared_ptr<service::RecommendationService> service_;
  std::shared_ptr<online::OnlineJuggler> online_;
  std::unique_ptr<net::HttpRecommendServer> server_;
};

struct ChaosLogEntry {
  int64_t at_ms = 0;
  std::string action;
  std::string detail;
  bool ok = true;
};

/// Executes the trace's chaos schedule against the stack. Corrupt/restore
/// operate on the model artifact files; every action ends with a reload so
/// the stack notices.
class ChaosExecutor {
 public:
  ChaosExecutor(Stack* stack, const fs::path& model_dir,
                std::vector<loadgen::ChaosEvent> events, double time_scale)
      : stack_(stack),
        model_dir_(model_dir),
        events_(std::move(events)),
        time_scale_(time_scale) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const loadgen::ChaosEvent& a,
                        const loadgen::ChaosEvent& b) {
                       return a.at_ms < b.at_ms;
                     });
  }

  void Run(Clock::time_point start) {
    for (const loadgen::ChaosEvent& event : events_) {
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds(static_cast<int64_t>(
                      static_cast<double>(event.at_ms) * time_scale_)));
      Execute(event);
    }
  }

  const std::vector<ChaosLogEntry>& log() const { return log_; }

 private:
  fs::path ModelPath(const std::string& app) const {
    return model_dir_ / (app + service::ModelRegistry::kModelSuffix);
  }

  void Execute(const loadgen::ChaosEvent& event) {
    ChaosLogEntry entry;
    entry.at_ms = event.at_ms;
    entry.action = loadgen::ChaosActionName(event.action);
    switch (event.action) {
      case loadgen::ChaosAction::kKillShard:
        entry.ok = stack_->KillShard(static_cast<size_t>(event.shard));
        entry.detail = "shard " + std::to_string(event.shard);
        break;
      case loadgen::ChaosAction::kRestartShard:
        entry.ok = stack_->RestartShard(static_cast<size_t>(event.shard));
        entry.detail = "shard " + std::to_string(event.shard);
        break;
      case loadgen::ChaosAction::kPauseShard: {
        entry.detail = "shard " + std::to_string(event.shard) + " for " +
                       std::to_string(event.pause_ms) + "ms";
        entry.ok = stack_->KillShard(static_cast<size_t>(event.shard));
        if (entry.ok) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(static_cast<int64_t>(
                  static_cast<double>(event.pause_ms) * time_scale_)));
          entry.ok = stack_->RestartShard(static_cast<size_t>(event.shard));
        }
        break;
      }
      case loadgen::ChaosAction::kCorruptModel: {
        const fs::path path = ModelPath(event.app);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        if (!in || buffer.str().empty()) {
          entry.ok = false;
          entry.detail = "cannot read " + path.string();
          break;
        }
        saved_[event.app] = buffer.str();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "CORRUPT GARBAGE: not a model artifact\n";
        entry.ok = static_cast<bool>(out);
        entry.detail = path.string();
        out.close();
        stack_->ReloadModels();
        break;
      }
      case loadgen::ChaosAction::kRestoreModel: {
        const auto it = saved_.find(event.app);
        if (it == saved_.end()) {
          entry.ok = false;
          entry.detail = "nothing saved for " + event.app;
          break;
        }
        std::ofstream out(ModelPath(event.app),
                          std::ios::binary | std::ios::trunc);
        out << it->second;
        entry.ok = static_cast<bool>(out);
        entry.detail = ModelPath(event.app).string();
        out.close();
        stack_->ReloadModels();
        break;
      }
      case loadgen::ChaosAction::kPublishRefit: {
        // Rewrite the artifact byte-for-byte: a fingerprint (mtime) change
        // the registry absorbs as a fresh publish, mid-serve.
        const fs::path path = ModelPath(event.app);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        if (!in || buffer.str().empty()) {
          entry.ok = false;
          entry.detail = "cannot read " + path.string();
          break;
        }
        in.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << buffer.str();
        entry.ok = static_cast<bool>(out);
        entry.detail = path.string();
        out.close();
        stack_->ReloadModels();
        break;
      }
    }
    std::printf("  chaos @%lldms %s (%s)%s\n",
                static_cast<long long>(entry.at_ms), entry.action.c_str(),
                entry.detail.c_str(), entry.ok ? "" : " FAILED");
    std::fflush(stdout);
    log_.push_back(std::move(entry));
  }

  Stack* stack_;
  const fs::path model_dir_;
  std::vector<loadgen::ChaosEvent> events_;
  const double time_scale_;
  std::map<std::string, std::string> saved_;
  std::vector<ChaosLogEntry> log_;
};

std::vector<std::string> LoadCorpus(const fs::path& dir) {
  std::vector<std::string> pool;
  if (!fs::is_directory(dir)) return pool;
  std::vector<fs::path> files;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.is_regular_file()) files.push_back(file.path());
  }
  std::sort(files.begin(), files.end());  // Deterministic pool order.
  for (const fs::path& path : files) {
    if (pool.size() >= 64) break;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    if (bytes.empty() || bytes.size() > 4'096) continue;
    pool.push_back(std::move(bytes));
  }
  return pool;
}

net::Json VerdictJson(const loadgen::Verdict& verdict) {
  net::Json out = net::Json::Obj();
  out.Set("name", net::Json::Str(verdict.name))
      .Set("pass", net::Json::Bool(verdict.pass))
      .Set("detail", net::Json::Str(verdict.detail));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  auto trace = loadgen::LoadTraceFile(flags.trace);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 2;
  }

  const fs::path model_dir =
      flags.model_dir.empty()
          ? fs::temp_directory_path() / "juggler_soak_registry"
          : fs::path(flags.model_dir);
  std::printf("== juggler_soak: %s | mode %s | seed %llu | scale %.2g ==\n",
              flags.trace.c_str(), flags.mode.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.time_scale);
  EnsureModels(model_dir);

  loadgen::GeneratorOptions gen_options;
  gen_options.seed = flags.seed;
  gen_options.default_apps.clear();
  for (const auto& w : workloads::AllWorkloads()) {
    gen_options.default_apps.push_back(w.name);
  }
  fs::path corpus_dir = flags.corpus.empty()
                            ? fs::path(JUGGLER_SOURCE_DIR) / "fuzz" /
                                  "corpus" / "http_parser"
                            : fs::path(flags.corpus);
  gen_options.malformed_pool = LoadCorpus(corpus_dir);
  std::printf("malformed pool: %zu corpus samples%s\n",
              gen_options.malformed_pool.size(),
              gen_options.malformed_pool.empty() ? " (using built-ins)" : "");
  const std::vector<loadgen::LoadEvent> events =
      loadgen::GenerateEvents(*trace, gen_options);
  std::printf("trace: %zu phases, %zu events, %lldms (x%.2g wall)\n",
              trace->phases.size(), events.size(),
              static_cast<long long>(trace->TotalDurationMs()),
              flags.time_scale);

  std::unique_ptr<Stack> stack;
  ClusterStack* cluster_stack = nullptr;
  if (flags.mode == "cluster") {
    auto owned = std::make_unique<ClusterStack>(model_dir, flags.shards,
                                                flags.online);
    cluster_stack = owned.get();
    stack = std::move(owned);
  } else {
    stack = std::make_unique<StandaloneStack>(model_dir, flags.online);
  }
  const uint16_t port = stack->http_port();
  std::printf("stack up on 127.0.0.1:%u (%s, %d shard(s), online %s)\n",
              port, flags.mode.c_str(),
              flags.mode == "cluster" ? flags.shards : 0,
              flags.online ? "on" : "off");
  std::fflush(stdout);

  // Replay + chaos + metrics polling share one start instant so trace
  // offsets line up across all three.
  const auto start = Clock::now() + std::chrono::milliseconds(100);

  ChaosExecutor chaos(stack.get(), model_dir, trace->chaos,
                      flags.time_scale);
  std::thread chaos_thread([&] { chaos.Run(start); });

  loadgen::MetricsMonitor monitor;
  std::atomic<bool> stop_polling{false};
  std::thread metrics_thread([&] {
    while (!stop_polling.load(std::memory_order_relaxed)) {
      auto scrape = loadgen::HttpFetch("127.0.0.1", port, "GET", "/metrics",
                                       "", 2'000);
      if (scrape.ok() && scrape->status == 200) {
        monitor.Observe("edge", loadgen::ParsePrometheusText(scrape->body));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });

  loadgen::ReplayOptions replay_options;
  replay_options.port = port;
  replay_options.workers = flags.workers;
  replay_options.time_scale = flags.time_scale;
  auto replayed = loadgen::RunReplay(*trace, events, replay_options);
  chaos_thread.join();
  stop_polling.store(true, std::memory_order_relaxed);
  metrics_thread.join();
  if (!replayed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replayed.status().ToString().c_str());
    stack->Stop();
    return 1;
  }
  const std::vector<loadgen::PhaseResult>& phases = *replayed;

  // Drain check: with the replay's connections closed, the edge server's
  // active-connection gauge must return to (at most) the scrape itself.
  bool drained = false;
  for (int i = 0; i < 50 && !drained; ++i) {
    auto scrape = loadgen::HttpFetch("127.0.0.1", port, "GET", "/metrics",
                                     "", 2'000);
    if (scrape.ok() && scrape->status == 200) {
      const auto samples = loadgen::ParsePrometheusText(scrape->body);
      const auto it = samples.find("juggler_http_connections_active");
      drained = it != samples.end() && it->second <= 1.0;
    }
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Verdicts: per-phase SLOs + the continuous metrics invariants.
  const double latency_slack = kSanitizerBuild ? 10.0 : 1.0;
  bool pass = drained;
  std::vector<loadgen::Verdict> all_verdicts;
  net::Json phases_json = net::Json::Arr();
  uint64_t total_sent = 0;
  uint64_t total_ok = 0;
  double total_duration_s = 0.0;
  for (size_t i = 0; i < phases.size(); ++i) {
    const loadgen::PhaseResult& result = phases[i];
    total_sent += result.sent;
    total_ok += result.ok2xx;
    total_duration_s += result.duration_s;
    net::Json verdicts_json = net::Json::Arr();
    for (const loadgen::Verdict& verdict :
         loadgen::CheckPhase(trace->phases[i], result, latency_slack)) {
      pass = pass && verdict.pass;
      all_verdicts.push_back(verdict);
      verdicts_json.Append(VerdictJson(verdict));
    }
    net::Json phase_json = net::Json::Obj();
    phase_json.Set("name", net::Json::Str(result.name))
        .Set("duration_s", net::Json::Number(result.duration_s))
        .Set("sent", net::Json::Number(static_cast<double>(result.sent)))
        .Set("ok2xx", net::Json::Number(static_cast<double>(result.ok2xx)))
        .Set("shed503",
             net::Json::Number(static_cast<double>(result.shed503)))
        .Set("retry_after_missing",
             net::Json::Number(
                 static_cast<double>(result.retry_after_missing)))
        .Set("errors4xx",
             net::Json::Number(static_cast<double>(result.errors4xx)))
        .Set("errors5xx",
             net::Json::Number(static_cast<double>(result.errors5xx)))
        .Set("transport_errors",
             net::Json::Number(static_cast<double>(result.transport_errors)))
        .Set("malformed_responses",
             net::Json::Number(
                 static_cast<double>(result.malformed_responses)))
        .Set("malformed_sent",
             net::Json::Number(static_cast<double>(result.malformed_sent)))
        .Set("slow_sent",
             net::Json::Number(static_cast<double>(result.slow_sent)))
        .Set("slow_reaped",
             net::Json::Number(static_cast<double>(result.slow_reaped)))
        .Set("slow_hung",
             net::Json::Number(static_cast<double>(result.slow_hung)))
        .Set("qps", net::Json::Number(result.Qps()))
        .Set("error_ratio", net::Json::Number(result.ErrorRatio()))
        .Set("p99_ms", net::Json::Number(result.P99Ms()))
        .Set("verdicts", std::move(verdicts_json));
    phases_json.Append(std::move(phase_json));
  }
  net::Json metrics_json = net::Json::Arr();
  for (const loadgen::Verdict& verdict : monitor.Verdicts()) {
    pass = pass && verdict.pass;
    all_verdicts.push_back(verdict);
    metrics_json.Append(VerdictJson(verdict));
  }
  for (const ChaosLogEntry& entry : chaos.log()) {
    pass = pass && entry.ok;
  }

  const double sustained_qps =
      total_duration_s > 0.0
          ? static_cast<double>(total_ok) / total_duration_s
          : 0.0;
  const double effective_floor = flags.qps_floor / flags.time_scale;
  const bool check_floor = !kSanitizerBuild && flags.qps_floor > 0.0;
  const bool floor_ok = !check_floor || sustained_qps >= effective_floor;
  pass = pass && floor_ok;

  // SOAK_report.json: the full picture one run produced.
  {
    net::Json chaos_json = net::Json::Arr();
    for (const ChaosLogEntry& entry : chaos.log()) {
      net::Json item = net::Json::Obj();
      item.Set("at_ms",
               net::Json::Number(static_cast<double>(entry.at_ms)))
          .Set("action", net::Json::Str(entry.action))
          .Set("detail", net::Json::Str(entry.detail))
          .Set("ok", net::Json::Bool(entry.ok));
      chaos_json.Append(std::move(item));
    }
    net::Json report = net::Json::Obj();
    report.Set("trace", net::Json::Str(flags.trace))
        .Set("mode", net::Json::Str(flags.mode))
        .Set("shards", net::Json::Number(
                           flags.mode == "cluster" ? flags.shards : 0))
        .Set("online", net::Json::Bool(flags.online))
        .Set("seed",
             net::Json::Number(static_cast<double>(flags.seed)))
        .Set("time_scale", net::Json::Number(flags.time_scale))
        .Set("sanitizer", net::Json::Bool(kSanitizerBuild))
        .Set("qps_floor", net::Json::Number(flags.qps_floor))
        .Set("effective_qps_floor", net::Json::Number(effective_floor))
        .Set("phases", std::move(phases_json))
        .Set("metrics_invariants", std::move(metrics_json))
        .Set("metrics_scrapes",
             net::Json::Number(static_cast<double>(monitor.scrapes())))
        .Set("chaos", std::move(chaos_json))
        .Set("connections_drained", net::Json::Bool(drained))
        .Set("pass", net::Json::Bool(pass));
    std::ofstream out(flags.report);
    out << report.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.report.c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.report.c_str());
  }

  // BENCH_soak.json: the sustained-throughput trajectory.
  {
    net::Json bench = net::Json::Obj();
    bench.Set("bench", net::Json::Str("soak"))
        .Set("mode", net::Json::Str(flags.mode))
        .Set("requests",
             net::Json::Number(static_cast<double>(total_sent)))
        .Set("ok2xx", net::Json::Number(static_cast<double>(total_ok)))
        .Set("duration_s", net::Json::Number(total_duration_s))
        .Set("sustained_req_per_s", net::Json::Number(sustained_qps))
        .Set("floor_req_per_s", net::Json::Number(flags.qps_floor))
        .Set("effective_floor_req_per_s", net::Json::Number(effective_floor))
        .Set("floor_checked", net::Json::Bool(check_floor));
    std::ofstream out(flags.bench);
    out << bench.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.bench.c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.bench.c_str());
  }

  if (cluster_stack != nullptr) {
    std::printf("router: reroutes %llu\n",
                static_cast<unsigned long long>(
                    cluster_stack->router().reroutes()));
  }
  stack->Stop();

  for (const loadgen::Verdict& verdict : all_verdicts) {
    std::printf("  [%s] %s — %s\n", verdict.pass ? "PASS" : "FAIL",
                verdict.name.c_str(), verdict.detail.c_str());
  }
  if (!drained) std::printf("  [FAIL] connections did not drain\n");
  if (check_floor) {
    std::printf(
        "  [%s] sustained %.1f req/s vs floor %.1f (%.1f at time-scale 1, "
        "/ %.2g)\n",
        floor_ok ? "PASS" : "FAIL", sustained_qps, effective_floor,
        flags.qps_floor, flags.time_scale);
  }
  std::printf("%s\n", pass ? "SOAK OK" : "SOAK FAILED");
  return pass ? 0 : 1;
}
