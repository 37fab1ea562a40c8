#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/serialization.h"
#include "net/http.h"
#include "net/json.h"
#include "net/recommend_codec.h"
#include "rpc/frame.h"
#include "service/prediction_cache.h"

namespace juggler::perfbench {

namespace {

/// Keeps timed results observable so the calls are not optimized away.
volatile size_t g_sink = 0;

/// Median over `passes` of (time of one pass over `count` calls) / count,
/// in ns: for calls too short to time one by one.
double NsPerCall(int passes, size_t count,
                 const std::function<void(size_t)>& call) {
  std::vector<double> per_call;
  for (int p = 0; p < passes; ++p) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < count; ++i) call(i);
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(count));
  }
  return Median(per_call);
}

/// Median of individually timed calls, in us.
double UsMedian(size_t count, const std::function<void(size_t)>& call) {
  std::vector<double> us;
  us.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t start = NowNs();
    call(i);
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(us);
}

/// Per request: client round trip (send to answer) minus the time spent
/// inside the handler entry points; median, us.
double LoopSelfUs(const LivePass& traced) {
  std::unordered_map<uint64_t, int64_t> handler_ns;
  for (const ServerSpan& s : traced.spans) {
    if (s.request_id != 0) handler_ns[s.request_id] += s.end_ns - s.start_ns;
  }
  std::vector<double> self_us;
  for (const ClientSpan& c : traced.fixed.spans) {
    auto it = handler_ns.find(c.request_id);
    if (it == handler_ns.end()) continue;
    self_us.push_back(
        static_cast<double>(c.done_ns - c.sent_ns - it->second) / 1e3);
  }
  return Median(self_us);
}

/// Writes the spans of the first kWrittenRequests requests (and the
/// unlinked shard spans of the same interval) as CSV; a server span's
/// parent is the client span with the same trace id.
void WriteSpans(const LivePass& traced, const fs::path& path) {
  constexpr uint64_t kWrittenRequests = 20'000;
  int64_t last_ns = 0;
  size_t written = 0;
  std::ofstream out(path);
  out << "trace_id,parent_id,name,start_ns,end_ns\n";
  for (const ClientSpan& c : traced.fixed.spans) {
    if (c.request_id > kWrittenRequests) continue;
    out << c.request_id << ",0,client.request," << c.sent_ns << ","
        << c.done_ns << "\n";
    last_ns = std::max(last_ns, c.done_ns);
    ++written;
  }
  for (const ServerSpan& s : traced.spans) {
    if (s.request_id > kWrittenRequests ||
        (s.request_id == 0 && s.end_ns > last_ns)) {
      continue;
    }
    out << s.request_id << "," << s.request_id << ","
        << SpanNameString(s.name) << "," << s.start_ns << "," << s.end_ns
        << "\n";
    ++written;
  }
  std::fprintf(stderr, "spans: %zu of %zu written to %s\n", written,
               traced.fixed.spans.size() + traced.spans.size(),
               path.c_str());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The service request the recommend codec decodes from `question`.
service::RecommendRequest Decode(const Question& question) {
  return *net::ParseRecommendRequest(*net::Json::Parse(QuestionJson(question)));
}

}  // namespace

int RunTraced(const RunContext& ctx) {
  // 1. End to end, untraced (then the rate ramp) and traced, each on a
  // freshly started stack and the same seeded inputs.
  ModelSet models;
  std::unique_ptr<Stack> stack;
  SetUp(ctx, ctx.run_dir / "models", nullptr, &models, &stack);
  const double live_s = 0.3 * ctx.seconds;
  const LivePass untraced = RunLivePass(ctx, models, stack.get(), live_s,
                                        0.3 * ctx.seconds, nullptr, nullptr);
  SpanSink sink(static_cast<size_t>(ctx.spec->fixed_rate * live_s * 2) +
                1024);
  stack = StartStack(ctx.spec->cluster, models.dir, &sink);
  const LivePass traced =
      RunLivePass(ctx, models, stack.get(), live_s, 0.0, &sink, nullptr);
  stack.reset();
  const fs::path spans_path = ctx.run_dir.parent_path() /
                              (std::string("spans-") + ctx.spec->name + ".csv");
  WriteSpans(traced, spans_path);
  const StackCounters& before = untraced.fixed.before;
  const StackCounters& after = untraced.fixed.after;
  std::fprintf(stderr,
               "untraced p50 %.4f ms, traced p50 %.4f ms; cpu %.2f vs %.2f "
               "us/req\n",
               untraced.fixed.p50_ms, traced.fixed.p50_ms,
               untraced.fixed.server_cpu_us_per_req,
               traced.fixed.server_cpu_us_per_req);

  // 2. Replay of the same seeded inputs through each module's public calls.
  RequestStream stream(*ctx.spec, ctx.seed, models.models);
  const RequestPlan plan = stream.Take(2'000);
  std::vector<const Request*> singles;
  std::vector<const Request*> batches;
  for (size_t i = 0; i < plan.size(); ++i) {  // Send order, with repeats.
    const Request& r = plan.at(i);
    if (r.kind == Request::Kind::kSingle) singles.push_back(&r);
    if (r.kind == Request::Kind::kBatch) batches.push_back(&r);
  }
  const size_t n = singles.size();
  std::vector<std::string> bodies;
  std::vector<net::Json> docs;
  std::vector<net::HttpRequest> http_requests;
  std::vector<service::RecommendRequest> requests;
  for (const Request* r : singles) {
    net::HttpParser parser(net::HttpParser::Limits{});
    parser.Append(r->wire.data(), r->wire.size());
    http_requests.push_back(parser.Next().request);
    bodies.push_back(http_requests.back().body);
    docs.push_back(*net::Json::Parse(bodies.back()));
    requests.push_back(*net::ParseRecommendRequest(docs.back()));
  }
  const int passes = 5;

  StandaloneStack standalone(models.dir, nullptr);
  service::RecommendationService& service = standalone.service();
  net::HttpRecommendServer& server = standalone.server();

  // Handle() on a cold cache, in workload order: misses and hits in the
  // workload's own mix. It also warms the cache for the calls below.
  const double handle_us = UsMedian(n, [&](size_t i) {
    g_sink = g_sink + server.Handle(http_requests[i]).body.size();
  });
  const double http_parse_ns = NsPerCall(passes, n, [&](size_t i) {
    net::HttpParser parser(net::HttpParser::Limits{});
    parser.Append(singles[i]->wire.data(), singles[i]->wire.size());
    g_sink = g_sink + parser.Next().request.body.size();
  });
  const double json_parse_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + net::Json::Parse(bodies[i]).ok();
  });
  const double decode_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + net::ParseRecommendRequest(docs[i]).ok();
  });
  const double resolve_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + standalone.registry().Resolve(requests[i].app).ok();
  });
  const double cached_answer_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + service.TryRecommendCached(requests[i]).has_value();
  });
  std::vector<std::shared_ptr<const core::TrainedJuggler>> resolved;
  std::vector<service::RecommendResponse> responses;
  for (const auto& request : requests) {
    resolved.push_back(standalone.registry().Resolve(request.app)->model);
    responses.push_back(*service.Recommend(request));
  }
  const double recommend_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + resolved[i]
                          ->Recommend(requests[i].params,
                                      requests[i].machine_type)
                          ->size();
  });
  std::vector<net::HttpResponse> encoded;
  const double encode_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink +
             net::ResponseJson(requests[i].app, responses[i]).Dump().size();
  });
  for (size_t i = 0; i < n; ++i) {
    encoded.push_back(net::HttpResponse::JsonBody(
        200, net::ResponseJson(requests[i].app, responses[i]).Dump()));
  }
  const double serialize_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + net::SerializeResponse(encoded[i], true).size();
  });
  const double handle_fast_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + server.HandleFast(http_requests[i]).has_value();
  });

  // Guaranteed misses: the service's full pool path vs the bare evaluation.
  std::vector<service::RecommendRequest> fresh;
  for (const Question& q : stream.FreshQuestions(std::min<size_t>(n, 1'000))) {
    fresh.push_back(Decode(q));
  }
  const double fresh_recommend_us = UsMedian(fresh.size(), [&](size_t i) {
    g_sink = g_sink + standalone.registry()
                          .Resolve(fresh[i].app)
                          ->model->Recommend(fresh[i].params,
                                             fresh[i].machine_type)
                          ->size();
  });
  const double miss_us = UsMedian(fresh.size(), [&](size_t i) {
    g_sink = g_sink + service.Recommend(fresh[i]).ok();
  });

  // Batches: the workload's own, else its singles grouped eight at a time.
  std::vector<std::vector<service::RecommendRequest>> batch_requests;
  for (const Request* b : batches) {
    std::vector<service::RecommendRequest> slots;
    for (const Question& q : b->questions) slots.push_back(Decode(q));
    batch_requests.push_back(std::move(slots));
  }
  if (batch_requests.empty()) {
    for (size_t i = 0; i + 8 <= n; i += 8) {
      batch_requests.emplace_back(requests.begin() + static_cast<long>(i),
                                  requests.begin() + static_cast<long>(i + 8));
    }
  }
  const uint64_t evals_before = service.GetStats().evaluations;
  size_t slots = 0;
  const double batch_us = UsMedian(batch_requests.size(), [&](size_t i) {
    g_sink = g_sink + service.RecommendBatch(batch_requests[i]).size();
    slots += batch_requests[i].size();
  });
  const double evals_per_slot = Ratio(
      static_cast<double>(service.GetStats().evaluations - evals_before),
      static_cast<double>(slots));
  standalone.Stop();

  // Registry loads and artifact parsing (set-up and lazy-miss costs).
  std::vector<double> refresh_ms;
  std::vector<double> lazy_load_us;
  for (int rep = 0; rep < 3; ++rep) {
    service::ModelRegistry eager(models.dir.string());
    const int64_t start = NowNs();
    g_sink = g_sink + eager.Refresh().ok();
    refresh_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    service::ModelRegistry::Options lazy_options;
    lazy_options.lazy_load = true;
    service::ModelRegistry lazy(models.dir.string(), lazy_options);
    g_sink = g_sink + lazy.Refresh().ok();
    for (const auto& [app, model] : models.models) {
      const int64_t t = NowNs();
      g_sink = g_sink + lazy.Resolve(app).ok();
      lazy_load_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
  }
  std::vector<std::string> artifacts;
  for (const auto& [app, text] : models.artifacts) artifacts.push_back(text);
  const double artifact_parse_us =
      NsPerCall(passes * 4, artifacts.size(), [&](size_t i) {
        g_sink = g_sink + core::TrainedJugglerFromString(artifacts[i]).ok();
      }) /
      1e3;

  // Cluster tier: router edge, forwarding, shard handler, framing, ring.
  ClusterStack cluster(models.dir, nullptr);
  std::vector<std::string> route_keys;
  std::vector<std::string> payloads;
  for (size_t i = 0; i < n; ++i) {
    route_keys.push_back(service::PredictionCache::MakeKey(
        requests[i].app, 0, requests[i].params, requests[i].machine_type));
    payloads.push_back(docs[i].Dump());
  }
  const double router_handle_us = UsMedian(n, [&](size_t i) {
    g_sink = g_sink + cluster.http().Handle(http_requests[i]).body.size();
  });
  const double forward_us = UsMedian(n, [&](size_t i) {
    g_sink = g_sink +
             cluster.router().ForwardRecommend(route_keys[i], payloads[i]).ok();
  });
  const double shard_handle_us = UsMedian(n, [&](size_t i) {
    rpc::RpcFrame frame;
    frame.type = rpc::FrameType::kRecommend;
    frame.payload = payloads[i];
    const size_t owner = cluster.router().ring().Owner(route_keys[i]);
    g_sink = g_sink +
             cluster.shards()[owner]->server->Handle(frame).payload.size();
  });
  const double frame_codec_ns = NsPerCall(passes, n, [&](size_t i) {
    rpc::RpcFrame frame;
    frame.type = rpc::FrameType::kRecommend;
    frame.request_id = i;
    frame.payload = payloads[i];
    const std::string bytes = rpc::EncodeFrame(frame);
    rpc::FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    g_sink = g_sink + decoder.Next().frame.payload.size();
  });
  const double owner_ns = NsPerCall(passes, n, [&](size_t i) {
    g_sink = g_sink + cluster.router().ring().Owner(route_keys[i]) +
             cluster.router().ring().Preference(route_keys[i], 3).size();
  });
  std::vector<double> shard_requests;
  for (const auto& s : cluster.router().GetShardStats()) {
    shard_requests.push_back(static_cast<double>(s.requests));
  }
  if (ctx.spec->cluster) {
    shard_requests.clear();
    for (size_t s = 0; s < after.shard_requests.size(); ++s) {
      shard_requests.push_back(static_cast<double>(after.shard_requests[s] -
                                                   before.shard_requests[s]));
    }
  }
  double shard_mean = 0.0;
  for (double r : shard_requests) shard_mean += r;
  shard_mean /= static_cast<double>(shard_requests.size());
  const double shard_skew =
      Ratio(*std::max_element(shard_requests.begin(), shard_requests.end()),
            shard_mean);
  const uint64_t reroutes = ctx.spec->cluster ? after.reroutes - before.reroutes
                                              : cluster.router().reroutes();
  cluster.Stop();

  // Online intake and refit, on a private copy of the artifacts (a refit
  // publishes into its registry directory).
  const fs::path online_dir = ctx.run_dir / "online";
  fs::copy(models.dir, online_dir);
  auto online_registry =
      std::make_shared<service::ModelRegistry>(online_dir.string());
  g_sink = g_sink + online_registry->Refresh().ok();
  online::OnlineJuggler::Options online_options;
  online_options.refit.min_records = 16;
  online::OnlineJuggler online(online_registry, nullptr, online_options);
  const std::vector<std::string> observation_batches =
      stream.ObservationBatches(12);
  std::vector<double> observe_us;
  std::vector<double> refit_ms;
  size_t attempted = 0;
  size_t accepted = 0;
  for (const std::string& batch : observation_batches) {
    int64_t start = NowNs();
    g_sink = g_sink + online.ObserveEncoded(batch).ok();
    observe_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    start = NowNs();
    const online::OnlineJuggler::CycleOutcome cycle = online.RunOnce();
    if (cycle.attempted > 0) {
      refit_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
    attempted += cycle.attempted;
    accepted += cycle.accepted;
  }
  double accept_ratio =
      Ratio(static_cast<double>(accepted), static_cast<double>(attempted));
  if (ctx.spec->cluster) {
    accept_ratio = Ratio(
        static_cast<double>(after.refits_accepted - before.refits_accepted),
        static_cast<double>(after.refits_attempted - before.refits_attempted));
  }

  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double hits = delta(after.cache_hits, before.cache_hits);
  const double misses = delta(after.cache_misses, before.cache_misses);
  const std::vector<Metric> metrics = {
      {"p99_ms", untraced.fixed.p99_ms, "ms"},
      {"max_qps_at_slo", untraced.max_qps_at_slo, "req/s"},
      {"net.http_parse_ns", http_parse_ns, "ns"},
      {"net.json_parse_ns", json_parse_ns, "ns"},
      {"net.decode_ns", decode_ns, "ns"},
      {"net.encode_ns", encode_ns, "ns"},
      {"net.serialize_ns", serialize_ns, "ns"},
      {"net.handle_fast_ns", handle_fast_ns, "ns"},
      {"net.handle_us", handle_us, "us"},
      {"net.loop_self_us", LoopSelfUs(traced), "us"},
      {"net.fast_path_ratio",
       Ratio(delta(after.http.fast_path, before.http.fast_path),
             delta(after.http.requests, before.http.requests)),
       "ratio"},
      {"net.overload_rejected",
       delta(after.http.overload_rejected, before.http.overload_rejected),
       "count"},
      {"service.resolve_ns", resolve_ns, "ns"},
      {"service.cached_answer_ns", cached_answer_ns, "ns"},
      {"service.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"service.miss_us", miss_us, "us"},
      {"service.pool_wait_us", miss_us - fresh_recommend_us, "us"},
      {"service.batch_us", batch_us, "us"},
      {"service.evals_per_slot", evals_per_slot, "ratio"},
      {"service.rejected", delta(after.rejected, before.rejected), "count"},
      {"service.deadline_shed",
       delta(after.deadline_shed, before.deadline_shed), "count"},
      {"service.refresh_ms", Median(refresh_ms), "ms"},
      {"service.lazy_load_us", Median(lazy_load_us), "us"},
      {"service.evictions", delta(after.evictions, before.evictions),
       "count"},
      {"core.recommend_ns", recommend_ns, "ns"},
      {"core.train_ms", models.train_ms, "ms"},
      {"core.artifact_parse_us", artifact_parse_us, "us"},
      {"cluster.router_handle_us", router_handle_us, "us"},
      {"cluster.forward_us", forward_us, "us"},
      {"cluster.shard_handle_us", shard_handle_us, "us"},
      {"rpc.transport_self_us", forward_us - shard_handle_us, "us"},
      {"rpc.frame_codec_ns", frame_codec_ns, "ns"},
      {"cluster.owner_ns", owner_ns, "ns"},
      {"cluster.shard_skew", shard_skew, "ratio"},
      {"cluster.reroutes", static_cast<double>(reroutes), "count"},
      {"online.observe_us", Median(observe_us), "us"},
      {"online.refit_ms", Median(refit_ms), "ms"},
      {"online.accept_ratio", accept_ratio, "ratio"},
      {"gen.late_p99_ms", untraced.fixed.late_p99_ms, "ms"},
      {"gen.cpu_us_per_req", untraced.fixed.gen_cpu_us_per_req, "us"},
      {"trace.p50_overhead_pct",
       100.0 * (traced.fixed.p50_ms / untraced.fixed.p50_ms - 1.0), "%"},
      {"trace.cpu_overhead_pct",
       100.0 * (traced.fixed.server_cpu_us_per_req /
                    untraced.fixed.server_cpu_us_per_req -
                1.0),
       "%"},
      {"trace.spans", static_cast<double>(traced.spans.size() +
                                          traced.fixed.spans.size()),
       "count"},
  };
  const bool correct = Correct(untraced.fixed, ctx.spec->p99_limit_ms) &&
                       Correct(traced.fixed, ctx.spec->p99_limit_ms);
  PrintResult(correct, untraced.fixed.attempted + traced.fixed.attempted,
              untraced.fixed.failed + traced.fixed.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace juggler::perfbench
