// Micro-benchmarks (google-benchmark): raw throughput of the simulator and
// of Juggler's algorithmic pieces, plus the ablation the DESIGN.md calls
// out (metrics derived from instrumentation vs Algorithm 1 runtime).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/dataset_metrics.h"
#include "core/hotspot.h"
#include "core/juggler.h"
#include "core/parameter_calibration.h"
#include "math/linear_model.h"
#include "math/nnls.h"
#include "minispark/engine.h"
#include "core/serialization.h"
#include "net/http.h"
#include "net/http_recommend_server.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "service/model_registry.h"
#include "service/recommendation_service.h"
#include "workloads/workloads.h"

namespace {

using namespace juggler;  // NOLINT

minispark::RunOptions Quiet() {
  minispark::RunOptions o;
  o.noise_sigma = 0.0;
  o.straggler_prob = 0.0;
  return o;
}

void BM_EngineRunSvm(benchmark::State& state) {
  const auto w = workloads::GetWorkload("svm").value();
  minispark::AppParams p = w.paper_params;
  p.iterations = static_cast<int>(state.range(0));
  const auto app = w.make(p);
  minispark::Engine engine(Quiet());
  for (auto _ : state) {
    auto r = engine.RunDefault(app, minispark::PaperCluster(8));
    benchmark::DoNotOptimize(r->duration_ms);
  }
  state.SetItemsProcessed(state.iterations() * p.iterations);
}
BENCHMARK(BM_EngineRunSvm)->Arg(10)->Arg(100);

void BM_EngineRunPca(benchmark::State& state) {
  // PCA stresses the planner: ~1800 datasets, ~100 jobs.
  const auto w = workloads::GetWorkload("pca").value();
  const auto app = w.make(w.paper_params);
  minispark::Engine engine(Quiet());
  for (auto _ : state) {
    auto r = engine.RunDefault(app, minispark::PaperCluster(4));
    benchmark::DoNotOptimize(r->duration_ms);
  }
}
BENCHMARK(BM_EngineRunPca);

void BM_InstrumentedRun(benchmark::State& state) {
  const auto w = workloads::GetWorkload("lor").value();
  const auto app = w.make(minispark::AppParams{2000, 500, 3});
  minispark::RunOptions o = Quiet();
  o.instrument = true;
  minispark::Engine engine(o);
  for (auto _ : state) {
    auto r = engine.RunDefault(app, minispark::TrainingNode());
    benchmark::DoNotOptimize(r->profile);
  }
}
BENCHMARK(BM_InstrumentedRun);

void BM_DeriveMetrics(benchmark::State& state) {
  const auto w = workloads::GetWorkload("lor").value();
  const auto app = w.make(minispark::AppParams{2000, 500, 3});
  minispark::RunOptions o = Quiet();
  o.instrument = true;
  minispark::Engine engine(o);
  const auto run = engine.RunDefault(app, minispark::TrainingNode());
  for (auto _ : state) {
    auto metrics = core::DeriveDatasetMetrics(
        core::BuildMergedDag(*run->profile), *run->profile);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_DeriveMetrics);

void BM_HotspotDetection(benchmark::State& state) {
  const auto w = workloads::GetWorkload("svm").value();
  const auto app = w.make(minispark::AppParams{2000, 500,
                                               static_cast<int>(state.range(0))});
  minispark::RunOptions o = Quiet();
  o.instrument = true;
  minispark::Engine engine(o);
  const auto run = engine.RunDefault(app, minispark::TrainingNode());
  const auto dag = core::BuildMergedDag(*run->profile);
  const auto metrics = core::DeriveDatasetMetrics(dag, *run->profile).value();
  for (auto _ : state) {
    auto schedules = core::DetectHotspots(dag, metrics);
    benchmark::DoNotOptimize(schedules);
  }
}
BENCHMARK(BM_HotspotDetection)->Arg(3)->Arg(20);

void BM_NnlsFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(99);
  math::Matrix a(n, 4);
  std::vector<double> b(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < 4; ++c) a(r, c) = rng.Uniform(0, 2);
    b[static_cast<size_t>(r)] = rng.Uniform(0, 10);
  }
  for (auto _ : state) {
    std::vector<double> x;
    auto st = math::NonNegativeLeastSquares(a, b, &x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_NnlsFit)->Arg(9)->Arg(100);

// Leave-one-out family selection over the four time-model families. n = 9
// is the offline 3x3 training grid; n = 450 is one refit target's buffer on
// the cluster_online serving workload, drawn like its observe batches
// (e in [2000, 20000], f in [100, 2000], a drifted time model with 2% noise).
void BM_CrossValidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(450);
  std::vector<math::Observation> data;
  for (int i = 0; i < n; ++i) {
    const double e = n == 9 ? 4000.0 * (1 << (i / 3))
                            : static_cast<double>(rng.UniformInt(2'000, 20'000));
    const double f = n == 9 ? 1000.0 * (1 << (i % 3))
                            : static_cast<double>(rng.UniformInt(100, 2'000));
    const double value = (1800.0 + 0.004 * e * f) * 1.25 * rng.Jitter(0.02);
    data.push_back({{e, f}, value});
  }
  const auto families = math::MakeTimeModelFamilies();
  for (auto _ : state) {
    auto best = math::SelectModelByCrossValidation(families, data);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_CrossValidation)->Arg(9)->Arg(450)->Unit(benchmark::kMicrosecond);

// The warm recommend path's text codecs, on the serving benchmark's shapes:
// three questions for each of the five paper workloads (examples, features
// and iterations inside the benchmark's ranges), their HTTP/1.1 requests as
// its load generator writes them, and the responses the trained models
// answer (models trained like the benchmark's registry).
struct CodecInputs {
  std::vector<std::string> wires;   ///< Complete HTTP requests.
  std::vector<std::string> bodies;  ///< Their JSON bodies.
  std::vector<std::string> apps;
  std::vector<service::RecommendResponse> responses;
  /// Each workload's trained model as a registry artifact, by app name.
  std::vector<std::pair<std::string, std::string>> artifacts;
};

const CodecInputs& Codec() {
  static const CodecInputs* const inputs = [] {
    auto* out = new CodecInputs;
    const minispark::AppParams questions[] = {
        {4000, 200, 3}, {12000, 900, 5}, {19000, 1800, 9}};
    for (const auto& w : workloads::AllWorkloads()) {
      core::JugglerConfig config = core::PaperTrainingConfig(w.paper_params);
      config.run_options = Quiet();
      const auto trained = core::TrainJuggler(w.name, w.make, config).value();
      std::ostringstream artifact;
      if (!core::SaveTrainedJuggler(trained.trained, artifact).ok()) {
        std::abort();
      }
      out->artifacts.emplace_back(w.name, artifact.str());
      for (const minispark::AppParams& q : questions) {
        char body[256];
        std::snprintf(body, sizeof(body),
                      "{\"app\":\"%s\",\"params\":{\"examples\":%.0f,"
                      "\"features\":%.0f,\"iterations\":%d}}",
                      w.name.c_str(), q.examples, q.features, q.iterations);
        out->bodies.emplace_back(body);
        out->wires.push_back(
            "POST /v1/recommend HTTP/1.1\r\nHost: perfbench\r\n"
            "X-Request-Id: 0000000042\r\nContent-Type: application/json\r\n"
            "Content-Length: " +
            std::to_string(out->bodies.back().size()) + "\r\n\r\n" +
            out->bodies.back());
        service::RecommendResponse response;
        response.recommendations =
            std::make_shared<const std::vector<core::Recommendation>>(
                trained.trained
                    .Recommend(q, minispark::PaperCluster(1))
                    .value());
        response.cache_hit = true;
        response.model_version = 1;
        out->apps.push_back(w.name);
        out->responses.push_back(std::move(response));
      }
    }
    return out;
  }();
  return *inputs;
}

void BM_HttpParseRecommend(benchmark::State& state) {
  const CodecInputs& in = Codec();
  size_t i = 0;
  for (auto _ : state) {
    const std::string& wire = in.wires[i++ % in.wires.size()];
    net::HttpParser parser(net::HttpParser::Limits{});
    parser.Append(wire.data(), wire.size());
    auto result = parser.Next();
    benchmark::DoNotOptimize(result.request.body.size());
  }
}
BENCHMARK(BM_HttpParseRecommend);

void BM_JsonParseRecommend(benchmark::State& state) {
  const CodecInputs& in = Codec();
  size_t i = 0;
  for (auto _ : state) {
    auto json = net::Json::Parse(in.bodies[i++ % in.bodies.size()]);
    benchmark::DoNotOptimize(json.ok());
  }
}
BENCHMARK(BM_JsonParseRecommend);

void BM_EncodeResponse(benchmark::State& state) {
  const CodecInputs& in = Codec();
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % in.responses.size();
    std::string text = net::ResponseJson(in.apps[k], in.responses[k]).Dump();
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_EncodeResponse);

// The worst request the event loop answers inline: a recommend batch that
// fills net::kInlineBodyBytes with distinct cold questions across the five
// apps, so every slot is a model evaluation. Each iteration asks new
// questions (nothing hits the cache) through HttpRecommendServer::HandleFast:
// JSON parse, one evaluation per slot, the spliced reply.
void BM_InlineBatchAtCap(benchmark::State& state) {
  namespace fs = std::filesystem;
  const CodecInputs& in = Codec();
  const fs::path dir = fs::temp_directory_path() / "juggler_bench_inline_cap";
  fs::create_directories(dir);
  for (const auto& [app, artifact] : in.artifacts) {
    std::ofstream(dir / (app + ".model")) << artifact;
  }
  auto registry = std::make_shared<service::ModelRegistry>(dir.string());
  if (!registry->Refresh().ok()) std::abort();
  auto service = std::make_shared<service::RecommendationService>(
      registry, service::RecommendationService::Options{});
  net::HttpRecommendServer server(registry, service,
                                  net::HttpRecommendServer::Options{});
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/recommend";
  request.version = "HTTP/1.1";
  int64_t question = 0;
  size_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    request.body = "{\"requests\":[";
    slots = 0;
    for (;;) {
      char slot[160];
      const std::string& app = in.artifacts[slots % in.artifacts.size()].first;
      std::snprintf(slot, sizeof(slot),
                    "{\"app\":\"%s\",\"params\":{\"examples\":%lld,"
                    "\"features\":%lld,\"iterations\":5}}",
                    app.c_str(), static_cast<long long>(4000 + question % 15000),
                    static_cast<long long>(200 + question / 15000 % 1600));
      const size_t next = request.body.size() + (slots > 0) + std::strlen(slot);
      if (next + 2 > net::kInlineBodyBytes) break;
      if (slots > 0) request.body.push_back(',');
      request.body.append(slot);
      ++slots;
      ++question;
    }
    request.body.append("]}");
    state.ResumeTiming();
    auto answer = server.HandleFast(request);
    if (!answer.has_value() || answer->status != 200) std::abort();
    benchmark::DoNotOptimize(answer->body.size());
  }
  state.counters["slots"] = static_cast<double>(slots);
}
BENCHMARK(BM_InlineBatchAtCap)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
